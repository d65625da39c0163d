#pragma once
// Prediction-quality drift detection over a stream of row verdicts.
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
//   - power-residual EWMA: |power - mu_state| / sigma_state of the state
//     occupied at each synced instant, where `power` is the row's
//     reference sample when the caller has one (true model error), else
//     its estimate.
// The WSP and residual thresholds are configurable (degraded at half the
// drifted value); the lost (10% / 40%) and resync (5 / 25 per 1000 rows)
// thresholds are fixed. Per-state occupancy of the window is exported as
// gauges so a scrape can see *where* the stream lives, not just how
// wrong it is.
//
// The monitor is an observer: the caller predicts a row, then hands the
// row's verdict (OnlinePredictor::lastRow()) to observe(). It never
// touches the predictor, so estimates cannot depend on it.
//
// Thread model: one feed thread calls observe(); status() is a relaxed
// atomic read and window() takes a mutex, so an introspection thread can
// poll both concurrently.

#include <atomic>
#include <cstddef>
#include <deque>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/psm.hpp"
#include "core/psm_simulator.hpp"

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
  /// Windowed WSP percentage at which the stream is drifted; it is
  /// degraded from half this value.
  double wsp_drifted_percent = 35.0;
  /// Power-residual EWMA z-score at which the stream is drifted; it is
  /// degraded from half this value.
  double residual_drifted_z = 6.0;
};

/// Windowed statistics, copied under the monitor's lock.
struct QualityWindow : core::PredictionCounts {
  double residual_ewma_z = 0.0;
  DriftStatus status = DriftStatus::Ok;
};

class QualityMonitor {
 public:
  /// `psm` provides the per-state <mu, sigma> the residual signal
  /// compares against (the Psm the observed predictor serves); it must
  /// outlive the monitor.
  explicit QualityMonitor(const core::Psm& psm,
                          QualityMonitorConfig config = {});

  /// Folds one predicted row into the window. `power` is the row's
  /// reference power sample when there is one, else its estimate.
  void observe(const core::RowVerdict& row, double power);

  /// Fresh stream: empties the window and resets the status.
  void reset();

  /// Refreshes the per-state occupancy gauges now. observe() refreshes
  /// them every 64 rows; call this once a stream ends.
  void publishOccupancy();

  /// Lock-free; safe from any thread (the serving endpoints poll it).
  DriftStatus status() const {
    return static_cast<DriftStatus>(status_.load(std::memory_order_relaxed));
  }

  QualityWindow window() const;

  /// Fraction of windowed rows spent in each state, indexed by StateId
  /// (desynchronized rows carry no state and are excluded).
  std::vector<double> stateOccupancy() const;

  const QualityMonitorConfig& config() const { return config_; }

 private:
  void evaluateLocked() REQUIRES(mutex_);
  void updateOccupancyGaugesLocked() REQUIRES(mutex_);

  const core::Psm* psm_;
  QualityMonitorConfig config_;

  // Lock table — mutex_ guards the sliding window (ring_/window_/
  // occupancy_/rows_seen_/residual_primed_), written by the feed thread
  // and copied by window()/stateOccupancy() on an introspection thread.
  // status_ stays a relaxed atomic so a status poll never blocks on the
  // feed.
  mutable common::Mutex mutex_;
  std::deque<core::RowVerdict> ring_ GUARDED_BY(mutex_);
  QualityWindow window_ GUARDED_BY(mutex_);
  /// Windowed rows per StateId.
  std::vector<std::size_t> occupancy_ GUARDED_BY(mutex_);
  /// Rows observed since the last reset (paces the occupancy gauges).
  std::size_t rows_seen_ GUARDED_BY(mutex_) = 0;
  bool residual_primed_ GUARDED_BY(mutex_) = false;
  std::atomic<int> status_{static_cast<int>(DriftStatus::Ok)};
};

}  // namespace psmgen::runtime
