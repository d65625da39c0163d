// End-to-end tests of the CharacterizationFlow on a small synthetic IP:
// a two-mode device (idle / busy) whose busy power is data-dependent.
// Checks that the flow mines a compact PSM, that training-trace
// re-simulation has near-zero MRE, and that the ablation knobs behave.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"

namespace psmgen {
namespace {

using common::BitVector;

trace::VariableSet toyVars() {
  trace::VariableSet vars;
  vars.add("run", 1, trace::VarKind::Input);
  vars.add("data", 8, trace::VarKind::Input);
  vars.add("out", 8, trace::VarKind::Output);
  return vars;
}

/// Builds a toy training pair: alternating idle stretches (run=0,
/// power ~1.0) and busy stretches (run=1, power = 2.0 + 0.5 * HD(data)).
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

core::FlowConfig toyConfig() {
  core::FlowConfig cfg;
  cfg.miner.max_toggle_rate = 0.6;
  return cfg;
}

TEST(Flow, BuildsCompactPsmFromMultipleTraces) {
  core::CharacterizationFlow flow(toyConfig());
  for (std::uint64_t s = 1; s <= 4; ++s) {
    trace::FunctionalTrace f;
    trace::PowerTrace p;
    buildToyPair(s, 40, f, p);
    flow.addTrainingTrace(std::move(f), std::move(p));
  }
  const core::BuildReport report = flow.build();
  EXPECT_GT(report.atoms, 0u);
  EXPECT_GT(report.raw_states, report.states);
  EXPECT_LE(flow.psm().stateCount(), 8u);
  EXPECT_GE(flow.psm().stateCount(), 2u);
  EXPECT_GT(report.generation_seconds, 0.0);
}

TEST(Flow, TrainingTraceHasLowMre) {
  core::CharacterizationFlow flow(toyConfig());
  trace::FunctionalTrace f0;
  trace::PowerTrace p0;
  buildToyPair(7, 60, f0, p0);
  flow.addTrainingTrace(f0, p0);
  flow.build();
  const double mre = flow.evaluateMre(f0, p0);
  // Busy power is data-dependent; the regression refinement must capture
  // it, leaving only model error.
  EXPECT_LT(mre, 0.05);
}

TEST(Flow, EvaluateMreRejectsAShortReference) {
  core::CharacterizationFlow flow(toyConfig());
  trace::FunctionalTrace f;
  trace::PowerTrace p;
  buildToyPair(7, 60, f, p);
  flow.addTrainingTrace(f, p);
  flow.build();
  // A reference that ends before the trace cannot score every instant;
  // it is refused, naming both lengths, before any sample is read.
  const trace::PowerTrace short_ref = p.subtrace(0, 10);
  try {
    flow.evaluateMre(f, short_ref);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("10 samples"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(f.length()) + " instants"),
              std::string::npos)
        << what;
  }
  // A reference longer than the trace is scored on its first instants.
  trace::PowerTrace long_ref = p;
  long_ref.append(1.0);
  EXPECT_EQ(flow.evaluateMre(f, long_ref), flow.evaluateMre(f, p));
}

TEST(Flow, GeneralizesToUnseenTraceOfSameBehaviour) {
  core::CharacterizationFlow flow(toyConfig());
  for (std::uint64_t s = 1; s <= 4; ++s) {
    trace::FunctionalTrace f;
    trace::PowerTrace p;
    buildToyPair(s, 40, f, p);
    flow.addTrainingTrace(std::move(f), std::move(p));
  }
  flow.build();
  trace::FunctionalTrace f_new;
  trace::PowerTrace p_new;
  buildToyPair(99, 60, f_new, p_new);
  const core::SimResult r = flow.estimate(f_new);
  EXPECT_EQ(r.estimate.size(), f_new.length());
  const double mre = trace::meanRelativeError(
      r.estimate, std::vector<double>(p_new.samples().begin(),
                                      p_new.samples().end()));
  EXPECT_LT(mre, 0.10);
  EXPECT_LT(r.wspPercent(), 20.0);
}

TEST(Flow, RefinementAblationRaisesMre) {
  auto run = [](bool refine) {
    core::FlowConfig cfg = toyConfig();
    cfg.apply_refine = refine;
    core::CharacterizationFlow flow(cfg);
    trace::FunctionalTrace f;
    trace::PowerTrace p;
    buildToyPair(5, 60, f, p);
    flow.addTrainingTrace(f, p);
    flow.build();
    return flow.evaluateMre(f, p);
  };
  const double with_refine = run(true);
  const double without_refine = run(false);
  EXPECT_LT(with_refine, without_refine);
}

/// Determinism contract of FlowConfig::num_threads: a multi-threaded
/// build must produce a combined PSM identical to the sequential one —
/// same states with the same <mu, sigma, n> attributes, same transitions,
/// same initial set — on a real multi-trace characterization (MultSum,
/// 4 training traces).
TEST(Flow, ParallelBuildIsIdenticalToSequential) {
  auto run = [](unsigned threads) {
    auto device = ip::makeDevice(ip::IpKind::MultSum);
    power::GateLevelEstimator est(*device,
                                  ip::powerConfig(ip::IpKind::MultSum));
    core::FlowConfig cfg;
    cfg.num_threads = threads;
    core::CharacterizationFlow flow(cfg);
    for (const auto& spec : ip::shortTSPlan(ip::IpKind::MultSum)) {
      auto tb =
          ip::makeTestbench(ip::IpKind::MultSum, ip::TestsetMode::Short,
                            spec.seed);
      auto pair = est.run(*tb, 1500);  // reduced scale to keep the test fast
      flow.addTrainingTrace(std::move(pair.functional),
                            std::move(pair.power));
    }
    const core::BuildReport report = flow.build();
    return std::make_pair(flow.psm(), report);
  };
  const auto [seq_psm, seq_report] = run(1);
  const auto [par_psm, par_report] = run(4);

  ASSERT_EQ(par_psm.stateCount(), seq_psm.stateCount());
  ASSERT_EQ(par_psm.transitionCount(), seq_psm.transitionCount());
  ASSERT_EQ(par_psm.initialStates(), seq_psm.initialStates());
  for (std::size_t s = 0; s < seq_psm.stateCount(); ++s) {
    const auto& a = seq_psm.state(static_cast<core::StateId>(s));
    const auto& b = par_psm.state(static_cast<core::StateId>(s));
    EXPECT_EQ(b.power.mean, a.power.mean) << "state " << s;
    EXPECT_EQ(b.power.stddev, a.power.stddev) << "state " << s;
    EXPECT_EQ(b.power.n, a.power.n) << "state " << s;
    EXPECT_EQ(b.assertion, a.assertion) << "state " << s;
  }
  // Full structural equality (includes intervals, regressions,
  // transition multiplicities).
  EXPECT_TRUE(par_psm == seq_psm);

  EXPECT_EQ(par_report.atoms, seq_report.atoms);
  EXPECT_EQ(par_report.propositions, seq_report.propositions);
  EXPECT_EQ(par_report.raw_states, seq_report.raw_states);
  EXPECT_EQ(par_report.simplified_pairs, seq_report.simplified_pairs);
  EXPECT_EQ(par_report.refined_states, seq_report.refined_states);
  // The pooled refinement and the in-place fuse both ran.
  EXPECT_GT(seq_report.refined_states, 1u);
  EXPECT_GT(seq_report.simplified_pairs, 0u);
}

TEST(Flow, RejectsMismatchedTraces) {
  core::CharacterizationFlow flow;
  trace::FunctionalTrace f;
  trace::PowerTrace p;
  buildToyPair(1, 10, f, p);
  trace::PowerTrace short_p = p.subtrace(0, f.length() - 5);
  EXPECT_THROW(flow.addTrainingTrace(f, short_p), std::invalid_argument);
  EXPECT_THROW(flow.build(), std::logic_error);

  flow.addTrainingTrace(f, p);
  trace::FunctionalTrace other(trace::VariableSet{});
  EXPECT_THROW(flow.addTrainingTrace(other, p), std::invalid_argument);
}

}  // namespace
}  // namespace psmgen
