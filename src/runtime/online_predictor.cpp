#include "runtime/online_predictor.hpp"

#include <chrono>

#include "obs/obs.hpp"

namespace psmgen::runtime {

namespace {
/// Registry handles resolved once; predictRow runs per stream row, so a
/// disabled registry must cost only a relaxed load + branch per counter.
struct PredictorCounters {
  obs::Counter& rows = obs::metrics().counter("predict.rows");
  obs::Counter& predictions = obs::metrics().counter("predict.predictions");
  obs::Counter& wrong = obs::metrics().counter("predict.wrong_predictions");
  obs::Counter& unexpected =
      obs::metrics().counter("predict.unexpected_behaviours");
  obs::Counter& lost = obs::metrics().counter("predict.lost_instants");
  obs::Counter& resyncs = obs::metrics().counter("predict.resyncs");
  obs::Histogram& resync_latency =
      obs::metrics().histogram("predict.resync_latency_rows");
};

PredictorCounters& counters() {
  static PredictorCounters c;
  return c;
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

OnlinePredictor::OnlinePredictor(const core::Psm& psm,
                                 const core::PropositionDomain& domain,
                                 core::SimOptions options)
    : sim_(psm, domain, options) {
  session_ = sim_.startSession();
}

OnlinePredictor::OnlinePredictor(const serialize::PsmModel& model,
                                 core::SimOptions options)
    : OnlinePredictor(model.psm, model.domain, options) {}

void OnlinePredictor::reset() {
  session_ = sim_.startSession();
  stats_ = PredictorStats{};
  lost_streak_ = 0;
}

double OnlinePredictor::predictRow(const std::vector<common::BitVector>& row) {
  using core::RowVerdict;
  const double estimate = session_->step(row);
  // The stats mirror the session's sums; the registry counters, the
  // resync histogram and the warn line take this row's verdict.
  static_cast<core::PredictionCounts&>(stats_) = session_->counts();
  const RowVerdict& verdict = session_->lastRow();
  PredictorCounters& c = counters();
  c.rows.add(1);
  c.predictions.add(verdict.predictions);
  c.wrong.add(verdict.has(RowVerdict::kWrongPrediction) ? 1 : 0);
  c.unexpected.add(verdict.has(RowVerdict::kUnexpected) ? 1 : 0);
  c.lost.add(verdict.has(RowVerdict::kLost) ? 1 : 0);
  if (verdict.has(RowVerdict::kResync)) {
    c.resyncs.add(1);
    // Resync latency: instants spent desynchronized before this
    // recovery (the paper's "until a known behaviour is recognised").
    c.resync_latency.record(static_cast<double>(lost_streak_));
    // A resync is worth a warn line, but a stream drifting off the
    // trained workload resyncs continuously — the token bucket caps
    // this call site at ~1 line/s and reports what it elided.
    static obs::RateLimiter resync_warn_limiter(/*tokens_per_second=*/1.0,
                                                /*burst=*/5.0);
    if (const auto d = resync_warn_limiter.tick(); d.allowed) {
      obs::warn("predict.resync",
                {{"row", stats_.rows},
                 {"lost_rows", lost_streak_},
                 {"resyncs", stats_.resyncs},
                 {"suppressed", d.suppressed}});
    }
  }
  lost_streak_ = verdict.has(RowVerdict::kLost) ? lost_streak_ + 1 : 0;
  return estimate;
}

PredictorStats OnlinePredictor::predictStream(
    StreamingTraceReader& reader,
    const std::function<void(std::size_t, double)>& sink) {
  sim_.checkVariables(reader.variables());
  reset();
  obs::Span span("predict.stream", "predict");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<common::BitVector> row;
  std::size_t index = 0;
  while (reader.next(row)) {
    const double estimate = predictRow(row);
    if (sink) sink(index, estimate);
    ++index;
  }
  stats_.seconds = secondsSince(t0);
  obs::metrics().gauge("predict.wsp_percent").set(stats_.wspPercent());
  obs::metrics().gauge("predict.lost_percent").set(stats_.lostPercent());
  obs::metrics()
      .gauge("predict.resyncs_per_kilorow")
      .set(stats_.resyncsPerKiloRow());
  obs::metrics().gauge("predict.rows_per_second").set(stats_.rowsPerSecond());
  obs::debug("predict.stream_done",
             {{"rows", stats_.rows},
              {"predictions", stats_.predictions},
              {"wrong", stats_.wrong_predictions},
              {"unexpected", stats_.unexpected_behaviours},
              {"lost", stats_.lost_instants},
              {"resyncs", stats_.resyncs},
              {"wsp_percent", stats_.wspPercent()},
              {"rows_per_second", stats_.rowsPerSecond()}});
  return stats_;
}

std::vector<double> OnlinePredictor::predictTrace(
    const trace::FunctionalTrace& trace) {
  sim_.checkVariables(trace.variables());
  reset();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> out;
  out.reserve(trace.length());
  std::vector<common::BitVector> row;
  for (std::size_t t = 0; t < trace.length(); ++t) {
    trace.readRow(t, row);
    out.push_back(predictRow(row));
  }
  stats_.seconds = secondsSince(t0);
  return out;
}

}  // namespace psmgen::runtime
