#pragma once
// Row-at-a-time power prediction over a trained PSM model.
//
// The serving half of the train/serve split: a model loaded from a PSM
// artifact (serialize::PsmModel) is wrapped once into an HMM-backed
// simulator, then any number of streams are predicted against it — each
// stream is one PsmSimulator::Session (forward filter, non-deterministic
// choice resolution, revert-and-penalize resynchronization), driven one
// row at a time so memory stays constant however long the stream runs.
//
// Per-stream counters (the session's PredictionCounts plus the wall time
// of the stream loop) support the production monitoring story; each
// row's verdict (lastRow()) feeds the registry counters here and, in the
// caller, a QualityMonitor or the serve wire flags. No clock is read per
// row. predictStream(), the only stream loop, couples the predictor to a
// StreamingTraceReader for the bounded-memory batch path. Per-row
// estimates are identical to PsmSimulator::simulate on the same rows —
// streaming changes memory behaviour, never results.

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/psm_simulator.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/functional_trace.hpp"

namespace psmgen::runtime {

/// Counters of one prediction stream (since construction or reset()):
/// the session's counts (core/psm_simulator.hpp "Row verdicts") plus the
/// wall time of the stream loop.
struct PredictorStats : core::PredictionCounts {
  /// Wall time of the latest predictStream() or predictTrace() loop; for
  /// predictStream() that includes the reader and the sink. predictRow()
  /// on its own leaves it unchanged.
  double seconds = 0.0;

  double rowsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(rows) / seconds : 0.0;
  }
};

class OnlinePredictor {
 public:
  /// Serves the given PSM/domain; both must outlive the predictor.
  OnlinePredictor(const core::Psm& psm, const core::PropositionDomain& domain,
                  core::SimOptions options = {});
  /// Serves a loaded model; the model must outlive the predictor.
  explicit OnlinePredictor(const serialize::PsmModel& model,
                           core::SimOptions options = {});

  /// Predicts the power of the next instant of the current stream. The
  /// row holds one value per trace variable, in variable-set order.
  double predictRow(const std::vector<common::BitVector>& row);

  /// The verdict of the latest predictRow().
  const core::RowVerdict& lastRow() const { return session_->lastRow(); }

  /// Ends the current stream and starts a fresh one (fresh HMM session,
  /// zeroed counters).
  void reset();

  const PredictorStats& stats() const { return stats_; }
  const core::PsmSimulator& simulator() const { return sim_; }

  /// The state the current stream's session sits in: kNoState before
  /// the first recognition, the last valid state while lost. Read-only
  /// view for the serve flight events.
  core::StateId currentState() const { return session_->currentState(); }

  /// Streams every row of `reader` through a fresh stream; `sink` (may be
  /// empty) receives (row index, estimate) as rows are consumed — nothing
  /// is accumulated, so memory stays bounded by one row and the reader's
  /// block. Returns the stream's final counters. Throws
  /// std::invalid_argument before the first row when the reader's
  /// variable set is not the model's (PsmSimulator::checkVariables).
  PredictorStats predictStream(
      StreamingTraceReader& reader,
      const std::function<void(std::size_t, double)>& sink = {});

  /// In-memory batch convenience: predicts a whole trace on a fresh
  /// stream and returns the per-instant estimates (identical to
  /// PsmSimulator::simulate(trace).estimate). Refuses a trace whose
  /// variable set is not the model's, as predictStream() does.
  std::vector<double> predictTrace(const trace::FunctionalTrace& trace);

 private:
  core::PsmSimulator sim_;
  std::optional<core::PsmSimulator::Session> session_;
  PredictorStats stats_;
  /// Instants of the current desynchronized stretch; feeds the
  /// `predict.resync_latency_rows` histogram on recovery.
  std::size_t lost_streak_ = 0;
};

}  // namespace psmgen::runtime
