#pragma once
// Prediction-quality drift detection over an OnlinePredictor stream.
//
// A trace-mined PSM is only trustworthy while the serving workload looks
// like the workload it was characterized on (paper Secs. V-VI): once the
// input distribution shifts, the wrong-state-prediction rate climbs, the
// simulator spends more instants desynchronized, and the emitted power
// wanders away from the per-state <mu, sigma> attributes the model
// stored. QualityMonitor watches exactly those signals *online* and
// folds them into a three-level drift status:
//
//   Ok       — every windowed signal below its degraded threshold
//   Degraded — some signal crossed its degraded threshold
//   Drifted  — some signal crossed its drifted threshold: the model no
//              longer fits its input. `psmgen serve` reports each
//              session's status in /debug/sessions and in FinAck, and
//              the transition triggers a flight-recorder dump
//
// Signals, all over a sliding window of the last `window_rows` rows
// (except the residual, which is an EWMA):
//   - windowed WSP percentage (wrong / resolved predictions),
//   - windowed lost percentage (instants desynchronized),
//   - windowed resync rate (recoveries per 1000 rows),
//   - power-residual EWMA: |estimate - mu_state| / sigma_state of the
//     state occupied at each synced instant — when a reference power
//     sample accompanies the row (predictRow(row, ref)), the reference
//     replaces the estimate and the signal measures true model error.
// Per-state occupancy of the window is exported as gauges so a scrape
// can see *where* the stream lives, not just how wrong it is.
//
// The monitor is strictly read-only over the predictor: it calls
// predictRow() and observes counters/session state afterwards, so the
// estimate stream is byte-identical with or without it (asserted by
// QualityMonitor.MonitorDoesNotChangeEstimates).
//
// Thread model: one feed thread calls predictRow()/predictStream();
// status() is a relaxed atomic read and window() takes a mutex, so an
// introspection thread can poll both concurrently.

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/psm.hpp"
#include "runtime/online_predictor.hpp"

namespace psmgen::runtime {

enum class DriftStatus { Ok = 0, Degraded = 1, Drifted = 2 };

const char* driftStatusName(DriftStatus status);

struct QualityMonitorConfig {
  /// Sliding-window length in rows.
  std::size_t window_rows = 2048;
  /// Rows required in the window before the status may leave Ok: a cold
  /// stream that starts desynchronized must not flap to Drifted on its
  /// first handful of rows.
  std::size_t min_rows = 256;
  /// Resolved predictions required in the window before the WSP signal
  /// is judged — a ratio over a handful of predictions is noise, not a
  /// drift measurement.
  std::size_t min_predictions = 32;

  /// Windowed WSP percentage thresholds.
  double wsp_degraded_percent = 15.0;
  double wsp_drifted_percent = 35.0;
  /// Windowed lost-instant percentage thresholds.
  double lost_degraded_percent = 10.0;
  double lost_drifted_percent = 40.0;
  /// Windowed resyncs per 1000 rows.
  double resync_degraded_per_kilorow = 5.0;
  double resync_drifted_per_kilorow = 25.0;

  /// EWMA smoothing factor for the power residual |value - mu| / sigma.
  double residual_alpha = 0.02;
  double residual_degraded_z = 3.0;
  double residual_drifted_z = 6.0;

  /// Occupancy gauges are refreshed every this many rows (they loop over
  /// the per-state table; the scalar gauges update every row).
  std::size_t occupancy_update_rows = 64;
};

/// Windowed statistics, copied under the monitor's lock.
struct QualityWindow {
  std::size_t rows = 0;
  std::size_t predictions = 0;
  std::size_t wrong_predictions = 0;
  std::size_t resyncs = 0;
  std::size_t lost_instants = 0;
  double residual_ewma_z = 0.0;
  DriftStatus status = DriftStatus::Ok;

  double wspPercent() const {
    return predictions == 0
               ? 0.0
               : 100.0 * static_cast<double>(wrong_predictions) /
                     static_cast<double>(predictions);
  }
  double lostPercent() const {
    return rows == 0 ? 0.0
                     : 100.0 * static_cast<double>(lost_instants) /
                           static_cast<double>(rows);
  }
  double resyncsPerKilorow() const {
    return rows == 0 ? 0.0
                     : 1000.0 * static_cast<double>(resyncs) /
                           static_cast<double>(rows);
  }
};

class QualityMonitor {
 public:
  /// Wraps `predictor`; `psm` provides the per-state <mu, sigma> the
  /// residual signal compares against (the same Psm the predictor
  /// serves). Both must outlive the monitor.
  QualityMonitor(OnlinePredictor& predictor, const core::Psm& psm,
                 QualityMonitorConfig config = {});

  /// Predicts the next row (identical estimate to the bare predictor)
  /// and folds the row into the window. The overload taking `reference`
  /// uses the reference power sample for the residual signal.
  double predictRow(const std::vector<common::BitVector>& row);
  double predictRow(const std::vector<common::BitVector>& row,
                    double reference);

  /// Streams every row of `reader` through the monitored predictor —
  /// the monitored twin of OnlinePredictor::predictStream, with the same
  /// sink contract and end-of-stream gauges.
  PredictorStats predictStream(
      StreamingTraceReader& reader,
      const std::function<void(std::size_t, double)>& sink = {});

  /// Fresh stream: resets the predictor, the window and the status.
  void reset();

  /// Lock-free; safe from any thread (the serving endpoints poll it).
  DriftStatus status() const {
    return static_cast<DriftStatus>(status_.load(std::memory_order_relaxed));
  }

  QualityWindow window() const;

  /// Fraction of windowed rows spent in each state, indexed by StateId
  /// (desynchronized rows carry no state and are excluded).
  std::vector<double> stateOccupancy() const;

  const OnlinePredictor& predictor() const { return predictor_; }
  const QualityMonitorConfig& config() const { return config_; }

 private:
  struct RowRecord {
    core::StateId state = core::kNoState;
    std::uint32_t predictions = 0;
    std::uint32_t wrong = 0;
    std::uint32_t resyncs = 0;
    bool lost = false;
  };

  double predictRowImpl(const std::vector<common::BitVector>& row,
                        const double* reference);
  void evaluateLocked() REQUIRES(mutex_);
  void updateOccupancyGaugesLocked() REQUIRES(mutex_);

  OnlinePredictor& predictor_;
  const core::Psm* psm_;
  QualityMonitorConfig config_;

  // Lock table — mutex_ guards the sliding window (ring_/window_/
  // occupancy_/residual_primed_), written by the feed thread and copied
  // by window()/stateOccupancy() on an introspection thread. status_
  // stays a relaxed atomic so a status poll never blocks on the feed.
  mutable common::Mutex mutex_;
  std::deque<RowRecord> ring_ GUARDED_BY(mutex_);
  QualityWindow window_ GUARDED_BY(mutex_);
  /// Windowed rows per StateId.
  std::vector<std::size_t> occupancy_ GUARDED_BY(mutex_);
  bool residual_primed_ GUARDED_BY(mutex_) = false;
  std::atomic<int> status_{static_cast<int>(DriftStatus::Ok)};
};

}  // namespace psmgen::runtime
