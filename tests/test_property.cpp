// Property-based tests: invariants of the mining -> generation -> merge
// pipeline over randomized mode traces (parameterized by seed).

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "core/generator.hpp"
#include "core/miner.hpp"
#include "core/xu_automaton.hpp"

namespace psmgen::core {
namespace {

using common::BitVector;

trace::VariableSet propVars() {
  trace::VariableSet vars;
  vars.add("m", 3, trace::VarKind::Input);
  return vars;
}

/// A random trace of mode runs: values 0..4, run lengths 1..12.
trace::FunctionalTrace randomModeTrace(std::uint64_t seed, std::size_t ops) {
  common::Rng rng(seed);
  trace::FunctionalTrace t(propVars());
  unsigned prev = 99;
  for (std::size_t i = 0; i < ops; ++i) {
    unsigned mode = 0;
    do {
      mode = static_cast<unsigned>(rng.uniform(5));
    } while (mode == prev);  // consecutive runs differ
    prev = mode;
    const std::size_t len = 1 + rng.uniform(12);
    for (std::size_t k = 0; k < len; ++k) t.append({BitVector(3, mode)});
  }
  return t;
}

trace::PowerTrace randomPower(std::uint64_t seed, std::size_t n) {
  common::Rng rng(seed * 31 + 1);
  trace::PowerTrace p;
  for (std::size_t i = 0; i < n; ++i) p.append(1.0 + rng.uniformReal());
  return p;
}

MinerConfig permissive() {
  MinerConfig cfg;
  cfg.max_toggle_rate = 1.0;
  cfg.max_singleton_run_fraction = 1.0;
  return cfg;
}

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, XuAssertionsPartitionTheTrace) {
  const auto t = randomModeTrace(GetParam(), 40);
  AssertionMiner miner(permissive());
  PropositionDomain domain(t.variables(), miner.mine({&t}).atoms);
  const PropositionTrace gamma = AssertionMiner::tracePropositions(domain, t);
  XuAutomaton xu(gamma);
  std::size_t covered_until = 0;
  std::size_t last_stop = 0;
  bool first = true;
  while (const auto mined = xu.next()) {
    // Intervals are contiguous and ordered.
    if (first) {
      EXPECT_EQ(mined->start, 0u);
      first = false;
    } else {
      EXPECT_EQ(mined->start, last_stop + 1);
    }
    EXPECT_LE(mined->start, mined->stop);
    // The state's proposition holds over the whole interval; the exit
    // proposition is different and holds right after.
    for (std::size_t i = mined->start; i <= mined->stop; ++i) {
      EXPECT_EQ(gamma.at(i), mined->pattern.p);
    }
    if (mined->pattern.q != kNoProp) {
      EXPECT_EQ(gamma.at(mined->stop + 1), mined->pattern.q);
      EXPECT_NE(mined->pattern.p, mined->pattern.q);
    }
    // next-patterns span exactly one instant (Sec. IV-A Case 1).
    if (!mined->pattern.is_until) {
      EXPECT_EQ(mined->start, mined->stop);
    }
    last_stop = mined->stop;
    covered_until = mined->stop + 1;
  }
  // Everything except possibly the final dangling proposition is covered.
  EXPECT_GE(covered_until + 12, gamma.length());
}

TEST_P(PipelineProperty, GeneratedChainInvariants) {
  const auto t = randomModeTrace(GetParam() + 1000, 40);
  const auto p = randomPower(GetParam(), t.length());
  AssertionMiner miner(permissive());
  PropositionDomain domain(t.variables(), miner.mine({&t}).atoms);
  const PropositionTrace gamma = AssertionMiner::tracePropositions(domain, t);
  const Psm psm = PsmGenerator::generate(gamma, p, 0);
  psm.validate();
  EXPECT_TRUE(psm.isChain());
  ASSERT_GE(psm.stateCount(), 1u);
  EXPECT_EQ(psm.transitionCount(), psm.stateCount() - 1);
  // Sample counts never exceed the trace length and sum close to it.
  std::size_t total_n = 0;
  for (const auto& s : psm.states()) {
    EXPECT_GE(s.power.n, 1u);
    total_n += s.power.n;
  }
  EXPECT_LE(total_n, t.length());
  // Each transition's enabling is the exit proposition of its source.
  for (const auto& tr : psm.transitions()) {
    EXPECT_EQ(tr.enabling,
              StateAssertion::exitProp(
                  psm.state(tr.from).assertion.alts.front()));
  }
}

TEST_P(PipelineProperty, SimplifyAndJoinPreserveSampleMass) {
  std::vector<Psm> chains;
  std::size_t total_before = 0;
  std::vector<trace::FunctionalTrace> traces;
  for (int k = 0; k < 3; ++k) {
    traces.push_back(randomModeTrace(GetParam() * 7 + k, 30));
  }
  std::vector<const trace::FunctionalTrace*> views;
  for (const auto& tr : traces) views.push_back(&tr);
  AssertionMiner miner(permissive());
  PropositionDomain domain(views.front()->variables(),
                           miner.mine(views).atoms);
  MergePolicy pol;
  for (int k = 0; k < 3; ++k) {
    const PropositionTrace gamma =
        AssertionMiner::tracePropositions(domain, traces[k]);
    Psm chain =
        PsmGenerator::generate(gamma, randomPower(k + 5, traces[k].length()), k);
    for (const auto& s : chain.states()) total_before += s.power.n;
    simplify(chain, pol);
    std::size_t after_simplify = 0;
    for (const auto& s : chain.states()) after_simplify += s.power.n;
    chains.push_back(std::move(chain));
  }
  const Psm joined = join(chains, pol);
  joined.validate();
  std::size_t total_after = 0;
  std::size_t alts = 0;
  for (const auto& s : joined.states()) {
    total_after += s.power.n;
    alts += s.assertion.alts.size();
    // Interval lengths are consistent with the sample count.
    std::size_t interval_n = 0;
    for (const auto& iv : s.intervals) interval_n += iv.length();
    EXPECT_EQ(interval_n, s.power.n);
  }
  EXPECT_EQ(total_after, total_before);
  EXPECT_GE(alts, joined.stateCount());
  // Initial-state multiplicities account for all three chains.
  std::size_t initials = 0;
  for (const auto& s : joined.states()) initials += s.initial_count;
  EXPECT_EQ(initials, 3u);
}

TEST_P(PipelineProperty, TrainingReplayNeverLosesSync) {
  FlowConfig cfg;
  cfg.miner = permissive();
  CharacterizationFlow flow(cfg);
  std::vector<trace::FunctionalTrace> traces;
  for (int k = 0; k < 3; ++k) {
    traces.push_back(randomModeTrace(GetParam() * 13 + k, 30));
    flow.addTrainingTrace(traces.back(),
                          randomPower(k + 17, traces.back().length()));
  }
  flow.build();
  for (const auto& t : traces) {
    const SimResult r = flow.estimate(t);
    EXPECT_EQ(r.lost_instants, 0u) << "seed " << GetParam();
    // Training behaviour is always recognisable again: at most a bounded
    // number of reinterpretation events may fail when an ambiguity chain
    // exceeds the simulator's bounded backtracking (the checkpoint stack,
    // PsmSimulator::Session::kMaxCheckpoints and kMaxBacktrackRuns); it
    // must never snowball.
    EXPECT_LE(r.unexpected_behaviours + r.wrong_predictions, 1u)
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace psmgen::core
