// Unit tests for the HMM over a joined PSM: A/B/pi construction from
// multiplicities, forward filtering, penalties and candidate selection.

#include <gtest/gtest.h>

#include "core/hmm.hpp"

namespace psmgen::core {
namespace {

/// Three-state PSM: s0 -p1-> s1 (x3), s0 -p1-> s2 (x1); s1/s2 -> s0.
/// s1 and s2 carry the same assertion (non-determinism from join).
Psm diamond() {
  Psm psm;
  PowerState s0;
  s0.assertion.alts.push_back(PatternSeq{{0, 1, true}});
  s0.power = PowerAttr::single(1.0, 0.1, 100);
  s0.initial_count = 2;
  PowerState s1;
  s1.assertion.alts.push_back(PatternSeq{{1, 0, true}});
  s1.power = PowerAttr::single(5.0, 0.1, 60);
  PowerState s2;
  s2.assertion.alts.push_back(PatternSeq{{1, 0, true}});
  s2.power = PowerAttr::single(9.0, 0.1, 20);
  psm.addState(std::move(s0));
  psm.addState(std::move(s1));
  psm.addState(std::move(s2));
  psm.addInitial(0);
  psm.addTransition({0, 1, 1, 3});
  psm.addTransition({0, 2, 1, 1});
  psm.addTransition({1, 0, 0, 3});
  psm.addTransition({2, 0, 0, 1});
  return psm;
}

TEST(Hmm, MatricesFromMultiplicities) {
  const Psm psm = diamond();
  const Hmm hmm(psm);
  EXPECT_EQ(hmm.stateCount(), 3u);
  // A row of s0 normalizes the 3:1 multiplicities.
  EXPECT_NEAR(hmm.a(0, 1), 0.75, 1e-12);
  EXPECT_NEAR(hmm.a(0, 2), 0.25, 1e-12);
  EXPECT_NEAR(hmm.a(1, 0), 1.0, 1e-12);
  // pi: only s0 is initial.
  EXPECT_NEAR(hmm.pi(0), 1.0, 1e-12);
  EXPECT_NEAR(hmm.pi(1), 0.0, 1e-12);
  // Events: two distinct assertions.
  EXPECT_EQ(hmm.eventCount(), 2u);
  const EventId e0 = hmm.eventOf(psm.state(0).assertion.alts[0]);
  const EventId e1 = hmm.eventOf(psm.state(1).assertion.alts[0]);
  ASSERT_NE(e0, kNoEvent);
  ASSERT_NE(e1, kNoEvent);
  EXPECT_NEAR(hmm.b(0, e0), 1.0, 1e-12);
  EXPECT_NEAR(hmm.b(1, e1), 1.0, 1e-12);
  EXPECT_NEAR(hmm.b(1, e0), 0.0, 1e-12);
  EXPECT_EQ(hmm.b(0, kNoEvent), 0.0);
  EXPECT_EQ(hmm.eventOf(PatternSeq{{7, 8, false}}), kNoEvent);
  // Each alternative keeps the event id of its sequence.
  for (const auto& s : psm.states()) {
    for (std::size_t alt = 0; alt < s.assertion.alts.size(); ++alt) {
      EXPECT_EQ(hmm.eventAt(s.id, alt), hmm.eventOf(s.assertion.alts[alt]));
    }
  }
}

TEST(Hmm, FilterStepFollowsTransitions) {
  const Psm psm = diamond();
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  // Belief starts at pi.
  EXPECT_NEAR(filter.belief()[0], 1.0, 1e-12);
  // Observe the busy assertion: belief splits 3:1 over s1/s2.
  const EventId busy = hmm.eventOf(psm.state(1).assertion.alts[0]);
  filter.step(busy);
  EXPECT_NEAR(filter.belief()[1], 0.75, 1e-12);
  EXPECT_NEAR(filter.belief()[2], 0.25, 1e-12);
}

TEST(Hmm, BestAmongPrefersLikelyBranch) {
  const Psm psm = diamond();
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  EXPECT_EQ(filter.bestAmong({1, 2}, kNoEvent), 1);
  EXPECT_EQ(filter.bestAmong({}, kNoEvent), kNoState);
}

TEST(Hmm, PenalizeRedirectsChoice) {
  const Psm psm = diamond();
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  filter.penalize(0, 1);
  EXPECT_EQ(filter.bestAmong({1, 2}, kNoEvent), 2);
  // reset() clears penalties.
  filter.reset();
  EXPECT_EQ(filter.bestAmong({1, 2}, kNoEvent), 1);
}

TEST(Hmm, ImpossibleObservationFallsBackToLikelihood) {
  const Psm psm = diamond();
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  const EventId busy = hmm.eventOf(psm.state(1).assertion.alts[0]);
  // From pi = delta(s0), staying at s0's event is impossible after a step
  // to busy states; fall back to B column.
  filter.step(busy);
  filter.step(busy);  // prediction says s0, but observation is busy
  EXPECT_GT(filter.belief()[1] + filter.belief()[2], 0.99);
}

TEST(Hmm, CommitBlendsBelief) {
  const Psm psm = diamond();
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  const EventId busy = hmm.eventOf(psm.state(1).assertion.alts[0]);
  filter.step(busy);
  filter.commit(2);
  EXPECT_GT(filter.belief()[2], 0.75);
  double total = 0.0;
  for (const double v : filter.belief()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Hmm, BestInitialUsesPi) {
  Psm psm = diamond();
  psm.state(1).initial_count = 5;  // make s1 a more common start
  psm.addInitial(1);
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  EXPECT_EQ(filter.bestInitial({0, 1}, kNoEvent), 1);
}

TEST(Hmm, PredictiveScoreGoldenValues) {
  const Psm psm = diamond();
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  // belief = pi = delta(s0): the score of j is exactly a(0, j).
  EXPECT_NEAR(filter.predictiveScore(1, kNoEvent), 0.75, 1e-12);
  EXPECT_NEAR(filter.predictiveScore(2, kNoEvent), 0.25, 1e-12);
  // Event evidence multiplies in the B column: s1 never emits the idle
  // assertion, so the same move scores 0 under that observation.
  const EventId idle = hmm.eventOf(psm.state(0).assertion.alts[0]);
  const EventId busy = hmm.eventOf(psm.state(1).assertion.alts[0]);
  EXPECT_NEAR(filter.predictiveScore(1, idle), 0.0, 1e-12);
  EXPECT_NEAR(filter.predictiveScore(1, busy), 0.75, 1e-12);
}

TEST(Hmm, RelaxRestoresPenalizedTransitions) {
  const Psm psm = diamond();
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  EXPECT_FALSE(filter.hasPenalties());
  filter.penalize(0, 1);
  EXPECT_TRUE(filter.hasPenalties());
  EXPECT_EQ(filter.bestAmong({1, 2}, kNoEvent), 2);
  // relax() lifts the penalty and restores the trained row.
  filter.relax();
  EXPECT_FALSE(filter.hasPenalties());
  EXPECT_EQ(filter.bestAmong({1, 2}, kNoEvent), 1);
  EXPECT_NEAR(filter.predictiveScore(1, kNoEvent), 0.75, 1e-12);
}

TEST(Hmm, PenalizeStateSuppressesInitialPriorUntilRelax) {
  // The first mis-prediction of a stream has no source state to penalize
  // a transition from; penalizeState must suppress the wrong state in the
  // belief and in the initial-choice prior instead.
  Psm psm = diamond();
  psm.state(1).initial_count = 5;
  psm.addInitial(1);
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  EXPECT_EQ(filter.bestInitial({0, 1}, kNoEvent), 1);
  filter.penalizeState(1);
  EXPECT_TRUE(filter.hasPenalties());
  EXPECT_EQ(filter.bestInitial({0, 1}, kNoEvent), 0);
  EXPECT_NEAR(filter.belief()[1], 0.0, 1e-12);
  double total = 0.0;
  for (const double v : filter.belief()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  filter.relax();
  EXPECT_FALSE(filter.hasPenalties());
  EXPECT_EQ(filter.bestInitial({0, 1}, kNoEvent), 1);
}

TEST(Hmm, UnknownEventStepKeepsBelief) {
  // An event unknown everywhere (all-zero B column) must not zero the
  // belief out: the filter keeps the previous distribution.
  const Psm psm = diamond();
  const Hmm hmm(psm);
  Hmm::Filter filter(hmm);
  const std::vector<double> before = filter.belief();
  filter.step(kNoEvent);
  EXPECT_EQ(filter.belief(), before);
}

TEST(Hmm, AbsorbingStateFallsBackToEmission) {
  // A state with no outgoing transitions yields an all-zero A row; the
  // filter must fall back to the emission likelihood instead of
  // normalizing a zero vector.
  Psm psm;
  PowerState s0;
  s0.assertion.alts.push_back(PatternSeq{{0, 1, true}});
  s0.power = PowerAttr::single(1.0, 0.1, 10);
  s0.initial_count = 1;
  PowerState s1;
  s1.assertion.alts.push_back(PatternSeq{{1, 0, true}});
  s1.power = PowerAttr::single(2.0, 0.1, 10);
  psm.addState(std::move(s0));
  psm.addState(std::move(s1));
  psm.addInitial(0);
  psm.addTransition({0, 1, 1, 1});  // s1 is absorbing
  const Hmm hmm(psm);
  EXPECT_NEAR(hmm.a(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(hmm.a(1, 1), 0.0, 1e-12);
  Hmm::Filter filter(hmm);
  const EventId busy = hmm.eventOf(psm.state(1).assertion.alts[0]);
  filter.step(busy);
  EXPECT_NEAR(filter.belief()[1], 1.0, 1e-12);
  filter.step(busy);  // zero predictive mass everywhere: emission fallback
  EXPECT_NEAR(filter.belief()[1], 1.0, 1e-12);
  double total = 0.0;
  for (const double v : filter.belief()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace psmgen::core
