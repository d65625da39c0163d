// Tests of the prediction-quality drift monitor
// (runtime/quality_monitor.hpp), fed the way serve and the CLI feed it —
// predict a row, then observe() its verdict: estimate transparency
// (byte-identical to the bare predictor), drift-state transitions on a
// synthetic drifting trace, recovery once the window slides past the
// drift, the residual signal under a biased power reference, windowed
// occupancy and counts, and reset() after drift.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/quality_monitor.hpp"
#include "runtime/streaming_reader.hpp"
#include "trace/functional_trace.hpp"
#include "trace/power_trace.hpp"
#include "trace/trace_io.hpp"

namespace psmgen {
namespace {

using common::BitVector;
using runtime::DriftStatus;

trace::VariableSet toyVars() {
  trace::VariableSet vars;
  vars.add("run", 1, trace::VarKind::Input);
  vars.add("data", 8, trace::VarKind::Input);
  vars.add("out", 8, trace::VarKind::Output);
  return vars;
}

void buildToyPair(std::uint64_t seed, std::size_t ops,
                  trace::FunctionalTrace& f, trace::PowerTrace& p) {
  common::Rng rng(seed);
  f = trace::FunctionalTrace(toyVars());
  p = trace::PowerTrace();
  BitVector prev_data(8, 0);
  BitVector data(8, 0);
  for (std::size_t op = 0; op < ops; ++op) {
    const bool busy = op % 2 == 1;
    const std::size_t len = 4 + rng.uniform(8);
    for (std::size_t i = 0; i < len; ++i) {
      if (busy) data = rng.bits(8);
      const unsigned hd = BitVector::hammingDistance(data, prev_data);
      f.append({BitVector(1, busy), data, BitVector(8, busy ? 0xFF : 0)});
      p.append(busy ? 2.0 + 0.5 * hd : 1.0);
      prev_data = data;
    }
  }
}

/// One characterized toy model shared by every test (characterization is
/// the expensive part; the monitor under test never mutates it).
const core::CharacterizationFlow& toyFlow() {
  static const core::CharacterizationFlow* flow = [] {
    core::FlowConfig cfg;
    cfg.miner.max_toggle_rate = 0.6;
    auto* f = new core::CharacterizationFlow(cfg);
    for (std::uint64_t s = 1; s <= 2; ++s) {
      trace::FunctionalTrace ft;
      trace::PowerTrace pt;
      buildToyPair(s, 40, ft, pt);
      f->addTrainingTrace(std::move(ft), std::move(pt));
    }
    f->build();
    return f;
  }();
  return *flow;
}

/// In-distribution rows: same generator family as the training traces.
std::vector<std::vector<BitVector>> goodRows(std::uint64_t seed,
                                             std::size_t ops) {
  trace::FunctionalTrace f;
  trace::PowerTrace p;
  buildToyPair(seed, ops, f, p);
  std::vector<std::vector<BitVector>> rows;
  rows.reserve(f.length());
  for (std::size_t t = 0; t < f.length(); ++t) rows.push_back(f.step(t));
  return rows;
}

/// Out-of-distribution rows: uniformly random values on every variable,
/// which violate the mined assertions and desynchronize the predictor.
std::vector<std::vector<BitVector>> garbageRows(std::uint64_t seed,
                                                std::size_t n) {
  common::Rng rng(seed);
  std::vector<std::vector<BitVector>> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back({rng.bits(1), rng.bits(8), rng.bits(8)});
  }
  return rows;
}

/// Predicts `row` and hands its verdict to `monitor` with `power` (the
/// estimate when no reference sample is given); returns the estimate.
double feed(runtime::OnlinePredictor& predictor,
            runtime::QualityMonitor& monitor,
            const std::vector<BitVector>& row,
            const double* power = nullptr) {
  const double estimate = predictor.predictRow(row);
  monitor.observe(predictor.lastRow(),
                  power != nullptr ? *power : estimate);
  return estimate;
}

/// Small window so the transition tests run on short streams.
runtime::QualityMonitorConfig testConfig() {
  runtime::QualityMonitorConfig config;
  config.window_rows = 64;
  config.min_rows = 32;
  config.min_predictions = 4;
  return config;
}

TEST(QualityMonitor, MonitorDoesNotChangeEstimates) {
  trace::FunctionalTrace eval;
  trace::PowerTrace eval_power;
  buildToyPair(7, 40, eval, eval_power);

  runtime::OnlinePredictor bare(toyFlow().psm(), toyFlow().domain());
  const std::vector<double> expected = bare.predictTrace(eval);

  runtime::OnlinePredictor observed(toyFlow().psm(), toyFlow().domain());
  runtime::QualityMonitor monitor(toyFlow().psm(), testConfig());
  ASSERT_EQ(expected.size(), eval.length());
  for (std::size_t t = 0; t < eval.length(); ++t) {
    const double estimate = feed(observed, monitor, eval.step(t));
    // Bit-identical, not approximately equal: monitoring is read-only.
    ASSERT_EQ(estimate, expected[t]) << "row " << t;
  }
}

TEST(QualityMonitor, PredictStreamMatchesBatchPrediction) {
  trace::FunctionalTrace eval;
  trace::PowerTrace eval_power;
  buildToyPair(9, 40, eval, eval_power);
  runtime::OnlinePredictor bare(toyFlow().psm(), toyFlow().domain());
  const std::vector<double> expected = bare.predictTrace(eval);

  std::ostringstream csv;
  trace::writeFunctionalTrace(csv, eval);
  std::istringstream is(csv.str());
  runtime::StreamingTraceReader reader(is);

  runtime::OnlinePredictor predictor(toyFlow().psm(), toyFlow().domain());
  runtime::QualityMonitor monitor(toyFlow().psm(), testConfig());
  std::vector<double> streamed(eval.length(), -1.0);
  const runtime::PredictorStats stats = predictor.predictStream(
      reader, [&](std::size_t i, double e) {
        streamed.at(i) = e;
        monitor.observe(predictor.lastRow(), e);
      });
  EXPECT_EQ(stats.rows, eval.length());
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(monitor.window().rows,
            std::min<std::size_t>(eval.length(),
                                  testConfig().window_rows));
}

TEST(QualityMonitor, StaysOkOnInDistributionStream) {
  runtime::OnlinePredictor predictor(toyFlow().psm(), toyFlow().domain());
  runtime::QualityMonitor monitor(toyFlow().psm(), testConfig());
  for (const auto& row : goodRows(11, 60)) feed(predictor, monitor, row);
  EXPECT_EQ(monitor.status(), DriftStatus::Ok);
  const runtime::QualityWindow w = monitor.window();
  EXPECT_EQ(w.rows, 64u);
  EXPECT_EQ(w.lost_instants, 0u);
  EXPECT_EQ(w.status, DriftStatus::Ok);
}

TEST(QualityMonitor, DriftsOnGarbageThenRecovers) {
  runtime::OnlinePredictor predictor(toyFlow().psm(), toyFlow().domain());
  runtime::QualityMonitor monitor(toyFlow().psm(), testConfig());

  // Phase 1 — in-distribution: the monitor settles at Ok.
  for (const auto& row : goodRows(13, 60)) feed(predictor, monitor, row);
  ASSERT_EQ(monitor.status(), DriftStatus::Ok);

  // Phase 2 — distribution shift: random rows desynchronize the
  // predictor; the windowed lost fraction climbs through Degraded into
  // Drifted (the window slides one row per step, so the intermediate
  // level must be visible on the way).
  bool saw_degraded = false;
  for (const auto& row : garbageRows(17, 120)) {
    feed(predictor, monitor, row);
    if (monitor.status() == DriftStatus::Degraded) saw_degraded = true;
    if (monitor.status() == DriftStatus::Drifted) break;
  }
  EXPECT_TRUE(saw_degraded);
  ASSERT_EQ(monitor.status(), DriftStatus::Drifted);
  EXPECT_GT(monitor.window().lostPercent(), 0.0);

  // Phase 3 — the workload returns to the characterized distribution:
  // once the window slides fully past the garbage (and any resync
  // spike), the status must come back to Ok without a reset.
  for (const auto& row : goodRows(19, 200)) feed(predictor, monitor, row);
  EXPECT_EQ(monitor.status(), DriftStatus::Ok);
  EXPECT_EQ(monitor.window().lost_instants, 0u);

  // Phase 4 — drift again, then reset(): a fresh stream starts Ok with
  // an empty window.
  for (const auto& row : garbageRows(37, 120)) {
    feed(predictor, monitor, row);
    if (monitor.status() == DriftStatus::Drifted) break;
  }
  ASSERT_EQ(monitor.status(), DriftStatus::Drifted);
  predictor.reset();
  monitor.reset();
  EXPECT_EQ(monitor.status(), DriftStatus::Ok);
  EXPECT_EQ(monitor.window().rows, 0u);
}

TEST(QualityMonitor, BiasedReferencePowerDriftsResidualSignal) {
  runtime::OnlinePredictor predictor(toyFlow().psm(), toyFlow().domain());
  runtime::QualityMonitor monitor(toyFlow().psm(), testConfig());

  // Reference equal to the estimate: zero residual, healthy.
  for (const auto& row : goodRows(23, 60)) feed(predictor, monitor, row);
  ASSERT_EQ(monitor.status(), DriftStatus::Ok);

  // The plant's measured power departs from every state's <mu, sigma>:
  // the residual EWMA is the only signal that can see it (the
  // functional stream still fits the model perfectly).
  predictor.reset();
  monitor.reset();
  std::size_t fed = 0;
  const double reference = 1e6;
  for (const auto& row : goodRows(23, 60)) {
    feed(predictor, monitor, row, &reference);
    ++fed;
    if (fed >= 48 && monitor.status() == DriftStatus::Drifted) break;
  }
  EXPECT_EQ(monitor.status(), DriftStatus::Drifted);
  EXPECT_GE(monitor.window().residual_ewma_z,
            monitor.config().residual_drifted_z);
}

TEST(QualityMonitor, WindowedOccupancyCoversSyncedRows) {
  runtime::OnlinePredictor predictor(toyFlow().psm(), toyFlow().domain());
  runtime::QualityMonitor monitor(toyFlow().psm(), testConfig());
  for (const auto& row : goodRows(29, 60)) feed(predictor, monitor, row);
  const std::vector<double> occupancy = monitor.stateOccupancy();
  EXPECT_EQ(occupancy.size(), toyFlow().psm().stateCount());
  double sum = 0.0;
  for (const double f : occupancy) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    sum += f;
  }
  // Every windowed row is synced by now, so the fractions partition the
  // window.
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(QualityMonitor, WindowSumsTheLastWindowRowsVerdicts) {
  runtime::OnlinePredictor predictor(toyFlow().psm(), toyFlow().domain());
  const runtime::QualityMonitorConfig config = testConfig();
  runtime::QualityMonitor monitor(toyFlow().psm(), config);
  std::vector<std::vector<BitVector>> rows = goodRows(31, 30);
  for (auto& row : garbageRows(41, 100)) rows.push_back(std::move(row));
  for (auto& row : goodRows(43, 30)) rows.push_back(std::move(row));

  std::deque<core::RowVerdict> last;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    feed(predictor, monitor, rows[t]);
    last.push_back(predictor.lastRow());
    if (last.size() > config.window_rows) last.pop_front();
    core::PredictionCounts expected;
    for (const core::RowVerdict& row : last) expected.add(row);
    const core::PredictionCounts window = monitor.window();
    ASSERT_EQ(window, expected) << "row " << t;
  }
  EXPECT_GT(predictor.stats().lost_instants, 0u);
  EXPECT_GT(predictor.stats().resyncs, 0u);
}

}  // namespace
}  // namespace psmgen
