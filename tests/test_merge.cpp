// Unit tests for the PSM model, mergeability cases (Sec. IV-A), simplify,
// join (incl. the non-deterministic case) and assertion normalization.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/merge.hpp"

namespace psmgen::core {
namespace {

PowerState makeState(PropId p, PropId q, bool until, double mean,
                     double stddev, std::size_t n, std::size_t start = 0) {
  PowerState s;
  s.assertion.alts.push_back(PatternSeq{{p, q, until}});
  s.power = PowerAttr::single(mean, stddev, n);
  s.intervals.push_back({start, start + n - 1, 0});
  return s;
}

/// Builds a chain PSM from (prop, exit, until, mean, sigma, n) specs.
struct ChainSpec {
  PropId p, q;
  bool until;
  double mean, stddev;
  std::size_t n;
};

Psm makeChain(const std::vector<ChainSpec>& specs) {
  Psm psm;
  StateId prev = kNoState;
  std::size_t t = 0;
  for (const auto& sp : specs) {
    const StateId id =
        psm.addState(makeState(sp.p, sp.q, sp.until, sp.mean, sp.stddev,
                               sp.n, t));
    t += sp.n;
    if (prev == kNoState) {
      psm.addInitial(id);
      psm.state(id).initial_count = 1;
    } else {
      psm.addTransition({prev, id,
                         psm.state(prev).assertion.alts.front().back().q});
    }
    prev = id;
  }
  return psm;
}

TEST(PowerAttr, MergedIsExactPooling) {
  // {1,2,3} and {10,12}: pooled mean 5.6, pooled sample stddev.
  const PowerAttr a = PowerAttr::single(2.0, 1.0, 3);
  const PowerAttr b = PowerAttr::single(11.0, std::sqrt(2.0), 2);
  const PowerAttr m = PowerAttr::merged(a, b);
  EXPECT_EQ(m.n, 5u);
  EXPECT_NEAR(m.mean, 5.6, 1e-12);
  // Direct computation over {1,2,3,10,12}.
  EXPECT_NEAR(m.stddev, std::sqrt((16 + 2 * 12.96 + 2 * 0.36 + 19.36 +
                                   40.96) /
                                  4.0),
              0.2);  // loose: verifies the magnitude
  EXPECT_DOUBLE_EQ(m.min_mean, 2.0);
  EXPECT_DOUBLE_EQ(m.max_mean, 11.0);
  EXPECT_GT(m.span(), 1.0);
}

TEST(Mergeable, Case1NextStates) {
  MergePolicy pol;
  pol.epsilon_abs = 0.5;
  pol.max_span = 10.0;  // isolate Case 1 from the span guard
  EXPECT_TRUE(mergeable(PowerAttr::single(1.0, 0, 1),
                        PowerAttr::single(1.3, 0, 1), pol));
  EXPECT_FALSE(mergeable(PowerAttr::single(1.0, 0, 1),
                         PowerAttr::single(1.9, 0, 1), pol));
}

TEST(Mergeable, Case2WelchAccepts) {
  MergePolicy pol;
  pol.epsilon_rel = 0.0;
  pol.epsilon_abs = 0.0;
  // Same mean, wide variance: clearly mergeable.
  EXPECT_TRUE(mergeable(PowerAttr::single(10.0, 3.0, 50),
                        PowerAttr::single(10.4, 3.0, 50), pol));
  // Tight variances, different means: rejected.
  EXPECT_FALSE(mergeable(PowerAttr::single(10.0, 0.01, 50),
                         PowerAttr::single(10.4, 0.01, 50), pol));
}

TEST(Mergeable, Case3UntilVsNext) {
  MergePolicy pol;
  pol.epsilon_rel = 0.0;
  const PowerAttr pop = PowerAttr::single(10.0, 1.0, 100);
  EXPECT_TRUE(mergeable(pop, PowerAttr::single(10.5, 0, 1), pol));
  EXPECT_FALSE(mergeable(pop, PowerAttr::single(20.0, 0, 1), pol));
  // Symmetric argument order.
  EXPECT_TRUE(mergeable(PowerAttr::single(10.5, 0, 1), pop, pol));
}

TEST(Mergeable, SpanGuardVetoesChains) {
  MergePolicy pol;
  pol.max_span = 0.25;
  PowerAttr wide = PowerAttr::single(10.0, 5.0, 100);
  wide.min_mean = 4.0;
  wide.max_mean = 10.0;
  // Pooling with a state at 12 would cover [4,12] over mean ~11 -> veto.
  EXPECT_FALSE(mergeable(wide, PowerAttr::single(12.0, 5.0, 100), pol));
}

TEST(Simplify, FusesAdjacentSimilarStates) {
  // idle(1.0) -> idle2(1.01) -> busy(5.0): the two idles fuse.
  Psm psm = makeChain({{0, 1, true, 1.0, 0.05, 50},
                       {1, 2, true, 1.01, 0.05, 40},
                       {2, 0, true, 5.0, 0.05, 30}});
  MergePolicy pol;
  const std::size_t fused = simplify(psm, pol);
  EXPECT_EQ(fused, 1u);
  EXPECT_EQ(psm.stateCount(), 2u);
  EXPECT_TRUE(psm.isChain());
  // The fused state carries the ;-sequence of both patterns.
  EXPECT_EQ(psm.state(0).assertion.alts.front().size(), 2u);
  EXPECT_EQ(psm.state(0).power.n, 90u);
  // Its outgoing transition is enabled by the exit of the last pattern.
  ASSERT_EQ(psm.transitionCount(), 1u);
  EXPECT_EQ(psm.transitions()[0].enabling, 2);
}

TEST(Simplify, LeavesDistinctStatesAlone) {
  Psm psm = makeChain({{0, 1, true, 1.0, 0.01, 50},
                       {1, 0, true, 10.0, 0.01, 50}});
  MergePolicy pol;
  EXPECT_EQ(simplify(psm, pol), 0u);
  EXPECT_EQ(psm.stateCount(), 2u);
}

TEST(Simplify, FusesAWholeChainInChainOrder) {
  // 200 states of nearly equal power, every adjacent pair mergeable. State
  // ids run against the chain: chain position k is state 199 - k.
  constexpr std::size_t kStates = 200;
  std::vector<PowerState> chain;
  for (std::size_t k = 0; k < kStates; ++k) {
    chain.push_back(makeState(static_cast<PropId>(k),
                              static_cast<PropId>(k + 1), true,
                              1.0 + 0.001 * static_cast<double>(k % 7), 0.05,
                              10 + k % 5, 1000 * k));
  }
  Psm psm;
  for (std::size_t k = kStates; k-- > 0;) psm.addState(chain[k]);
  const auto idAt = [](std::size_t k) {
    return static_cast<StateId>(kStates - 1 - k);
  };
  psm.addInitial(idAt(0));
  psm.state(idAt(0)).initial_count = 1;
  for (std::size_t k = 0; k + 1 < kStates; ++k) {
    psm.addTransition({idAt(k), idAt(k + 1), static_cast<PropId>(k + 1)});
  }

  EXPECT_EQ(simplify(psm, MergePolicy{}), kStates - 1);
  ASSERT_EQ(psm.stateCount(), 1u);
  const PowerState& fused = psm.state(0);
  PatternSeq patterns;
  std::vector<Interval> intervals;
  PowerAttr pooled = chain.front().power;
  for (std::size_t k = 0; k < kStates; ++k) {
    patterns.push_back(chain[k].assertion.alts.front().front());
    intervals.push_back(chain[k].intervals.front());
    if (k > 0) pooled = PowerAttr::merged(pooled, chain[k].power);
  }
  ASSERT_EQ(fused.assertion.alts.size(), 1u);
  EXPECT_EQ(fused.assertion.alts.front(), patterns);
  EXPECT_EQ(fused.intervals, intervals);
  EXPECT_EQ(fused.power, pooled);  // bitwise: left-to-right pooling
  EXPECT_EQ(psm.initialStates(), (std::vector<StateId>{0}));
  EXPECT_EQ(fused.initial_count, 1u);
  EXPECT_EQ(psm.transitionCount(), 0u);
}

TEST(Join, MergesRepeatedBehaviourAcrossChains) {
  // Two traces of the same idle/busy alternation.
  Psm a = makeChain({{0, 1, true, 1.0, 0.05, 50}, {1, 0, true, 5.0, 0.05, 50}});
  Psm b = makeChain({{0, 1, true, 1.02, 0.05, 60}, {1, 0, true, 4.9, 0.06, 40}});
  MergePolicy pol;
  const Psm joined = join({a, b}, pol);
  EXPECT_EQ(joined.stateCount(), 2u);
  // Initial states merged: one initial with multiplicity 2.
  ASSERT_EQ(joined.initialStates().size(), 1u);
  EXPECT_EQ(joined.state(joined.initialStates()[0]).initial_count, 2u);
  // Duplicate alternatives folded with multiplicity.
  for (const auto& s : joined.states()) {
    EXPECT_EQ(s.assertion.alts.size(), 1u);
    EXPECT_EQ(s.assertion.countOf(0), 2u);
  }
  // Transitions deduplicated with counts.
  for (const auto& t : joined.transitions()) EXPECT_EQ(t.count, 2u);
}

TEST(Join, KeepsDifferentBehavioursApartDespiteSimilarPower) {
  // Same power level, different propositions: must not merge (they share
  // no entry proposition).
  Psm a = makeChain({{0, 1, true, 1.0, 0.05, 50}, {1, 0, true, 5.0, 0.05, 50}});
  Psm b = makeChain({{2, 3, true, 1.0, 0.05, 50}, {3, 2, true, 5.0, 0.05, 50}});
  const Psm joined = join({a, b}, MergePolicy{});
  EXPECT_EQ(joined.stateCount(), 4u);
  EXPECT_EQ(joined.initialStates().size(), 2u);
}

TEST(Join, ConsolidatesDataSplitBuckets) {
  // Two chains where the busy state differs in mean (data-dependent
  // buckets) but the ranges abut: consolidation fuses them.
  Psm a = makeChain({{0, 1, true, 1.0, 0.01, 50}, {1, 0, true, 4.0, 1.0, 50}});
  Psm b = makeChain({{0, 1, true, 1.0, 0.01, 50}, {1, 0, true, 5.5, 1.0, 50}});
  MergePolicy pol;
  pol.epsilon_rel = 0.0;  // Welch alone rejects (tight means, big n)
  pol.alpha = 0.5;        // make Welch strict so only consolidation fuses
  const Psm joined = join({a, b}, pol);
  EXPECT_EQ(joined.stateCount(), 2u);
}

TEST(Join, GapVetoKeepsIdleAndBusyApart) {
  // Same entry proposition, hugely different power (idle vs busy that
  // look alike at the ports): range gap blocks consolidation.
  Psm a = makeChain({{0, 1, true, 1.0, 0.01, 50}, {1, 0, true, 1.0, 0.01, 5}});
  Psm b = makeChain({{0, 2, true, 14.0, 0.01, 50}, {2, 0, true, 1.0, 0.01, 5}});
  MergePolicy pol;
  const Psm joined = join({a, b}, pol);
  EXPECT_EQ(joined.stateCount(), 4u);
}

TEST(Join, NonDeterminismFromIdenticalAssertions) {
  // Two chains: idle -> busyA and idle -> busyB where busyA/busyB have the
  // same assertion and enabling but different continuations would make
  // the choice non-deterministic; here they merge into one state, and
  // the HMM's B sees multiplicity 2.
  Psm a = makeChain({{0, 1, true, 1.0, 0.01, 10}, {1, 0, true, 5.0, 0.01, 10}});
  Psm b = makeChain({{0, 1, true, 1.0, 0.01, 10}, {1, 0, true, 5.01, 0.01, 10}});
  const Psm joined = join({a, b}, MergePolicy{});
  EXPECT_EQ(joined.stateCount(), 2u);
  const auto& busy = joined.state(1);
  EXPECT_EQ(busy.assertion.alts.size(), 1u);
  EXPECT_EQ(busy.assertion.countOf(0), 2u);
}

TEST(Psm, ValidateAndAccessors) {
  Psm psm = makeChain({{0, 1, true, 1.0, 0.1, 10}, {1, 0, true, 2.0, 0.1, 10}});
  psm.validate();
  EXPECT_TRUE(psm.isChain());
  EXPECT_EQ(psm.transitionsFrom(0).size(), 1u);
  EXPECT_EQ(psm.successorsOn(0, 1), (std::vector<StateId>{1}));
  EXPECT_TRUE(psm.successorsOn(0, 99).empty());
  EXPECT_THROW(psm.addTransition({0, 7, 0}), std::invalid_argument);
  EXPECT_THROW(psm.addInitial(9), std::invalid_argument);
}

TEST(Simplify, RejectsNonChain) {
  Psm psm = makeChain({{0, 1, true, 1.0, 0.1, 10}, {1, 0, true, 2.0, 0.1, 10}});
  psm.addTransition({1, 0, 0});  // back edge: now a cycle
  MergePolicy pol;
  EXPECT_ANY_THROW(simplify(psm, pol));
}

TEST(Simplify, RejectsAStateWithTwoAlternativesBeforeFusingAny) {
  // The two idles would fuse; busy has two alternatives and fuses with
  // nothing, yet the chain is refused and left as it was.
  Psm psm = makeChain({{0, 1, true, 1.0, 0.05, 50},
                       {1, 2, true, 1.01, 0.05, 40},
                       {2, 0, true, 5.0, 0.05, 30}});
  psm.state(2).assertion.alts.push_back(PatternSeq{{3, 0, true}});
  const Psm before = psm;
  EXPECT_THROW(simplify(psm, MergePolicy{}), std::invalid_argument);
  EXPECT_TRUE(psm == before);
}

}  // namespace
}  // namespace psmgen::core
