// Unit tests for the PSM simulator: training-trace replay, until/next
// semantics, sequence assertions, regression outputs, resynchronization
// on unknown behaviour and the WSP / unexpected-behaviour accounting.

#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "core/generator.hpp"
#include "core/miner.hpp"
#include "core/psm_simulator.hpp"

namespace psmgen::core {
namespace {

using common::BitVector;

trace::VariableSet modeVars() {
  trace::VariableSet vars;
  vars.add("m", 2, trace::VarKind::Input);
  return vars;
}

/// Builds a trace of 2-bit "mode" values with the given run lengths.
trace::FunctionalTrace modeTrace(
    const std::vector<std::pair<unsigned, std::size_t>>& runs) {
  trace::FunctionalTrace t(modeVars());
  for (const auto& [mode, len] : runs) {
    for (std::size_t i = 0; i < len; ++i) t.append({BitVector(2, mode)});
  }
  return t;
}

trace::PowerTrace powerFor(const trace::FunctionalTrace& t,
                           const std::vector<double>& per_mode) {
  trace::PowerTrace p;
  for (std::size_t i = 0; i < t.length(); ++i) {
    p.append(per_mode.at(t.value(i, 0).toUint64()));
  }
  return p;
}

struct Built {
  std::unique_ptr<CharacterizationFlow> flow;
};

Built buildFlow(const std::vector<trace::FunctionalTrace>& traces,
                const std::vector<double>& per_mode,
                SimOptions sim = {}) {
  Built b;
  FlowConfig cfg;
  cfg.miner.max_toggle_rate = 1.0;
  cfg.miner.max_singleton_run_fraction = 1.0;
  cfg.sim = sim;
  b.flow = std::make_unique<CharacterizationFlow>(cfg);
  for (const auto& t : traces) {
    b.flow->addTrainingTrace(t, powerFor(t, per_mode));
  }
  b.flow->build();
  return b;
}

TEST(Simulator, ReplaysTrainingTraceExactly) {
  const auto t = modeTrace({{0, 10}, {1, 5}, {2, 8}, {0, 10}});
  Built b = buildFlow({t}, {1.0, 2.0, 3.0, 4.0});
  const SimResult r = b.flow->estimate(t);
  ASSERT_EQ(r.estimate.size(), t.length());
  EXPECT_EQ(r.wrong_predictions, 0u);
  EXPECT_EQ(r.unexpected_behaviours, 0u);
  EXPECT_EQ(r.lost_instants, 0u);
  for (std::size_t i = 0; i < t.length(); ++i) {
    const double want = powerFor(t, {1.0, 2.0, 3.0, 4.0}).at(i);
    EXPECT_NEAR(r.estimate[i], want, 1e-9) << "instant " << i;
  }
}

TEST(Simulator, UntilGeneralizesToDifferentRunLengths) {
  // Train with one run structure, evaluate on different lengths: until
  // patterns are duration-insensitive.
  const auto train = modeTrace({{0, 10}, {1, 6}, {0, 10}, {1, 6}, {0, 4}});
  Built b = buildFlow({train}, {1.0, 2.0});
  const auto eval = modeTrace({{0, 3}, {1, 17}, {0, 25}, {1, 2}, {0, 5}});
  const SimResult r = b.flow->estimate(eval);
  EXPECT_EQ(r.lost_instants, 0u);
  for (std::size_t i = 0; i < eval.length(); ++i) {
    EXPECT_NEAR(r.estimate[i], powerFor(eval, {1.0, 2.0}).at(i), 1e-9);
  }
}

TEST(Simulator, UnknownPropositionCausesLostInstants) {
  const auto train = modeTrace({{0, 10}, {1, 6}, {0, 10}});
  Built b = buildFlow({train}, {1.0, 2.0, 9.0});
  // Mode 2 never appears in training: its proposition is unknown.
  const auto eval = modeTrace({{0, 5}, {2, 4}, {0, 5}});
  const SimResult r = b.flow->estimate(eval);
  // Exactly the 4 unknown-proposition rows end desynchronized — each row
  // is counted lost at most once, and the first mode-0 row after the
  // stretch resynchronizes, so it is not lost.
  EXPECT_EQ(r.lost_instants, 4u);
  // The single violation happened on a deterministic path: it is an
  // unexpected behaviour, never a wrong prediction.
  EXPECT_EQ(r.wrong_predictions, 0u);
  EXPECT_EQ(r.unexpected_behaviours, 1u);
  // After the unknown stretch the simulator resynchronizes on mode 0.
  EXPECT_NEAR(r.estimate.back(), 1.0, 1e-9);
}

TEST(Simulator, UnseenSuccessionIsUnexpectedNotWrong) {
  // Training only ever sees 0 -> 1 -> 0; evaluation jumps 0 -> 2 where 2
  // exists in training but never after 0.
  const auto train = modeTrace({{0, 8}, {1, 5}, {0, 8}, {1, 5}, {2, 6},
                                {1, 5}, {0, 8}});
  Built b = buildFlow({train}, {1.0, 2.0, 3.0});
  const auto eval = modeTrace({{0, 8}, {2, 6}, {1, 5}});
  const SimResult r = b.flow->estimate(eval);
  EXPECT_GE(r.unexpected_behaviours, 1u);
  // Recognition recovers: the mode-2 stretch is eventually estimated at 3.
  EXPECT_NEAR(r.estimate[10], 3.0, 1e-9);
}

TEST(Simulator, RegressionOutputTracksHamming) {
  // Busy power = 2 + HD(inputs); the flow's refinement must recover it.
  trace::FunctionalTrace t(modeVars());
  trace::PowerTrace p;
  common::Rng rng(3);
  unsigned prev = 0;
  for (int burst = 0; burst < 30; ++burst) {
    for (int i = 0; i < 6; ++i) {
      t.append({BitVector(2, 0)});
      p.append(prev == 0 ? 1.0 : 1.0);
      prev = 0;
    }
    for (int i = 0; i < 6; ++i) {
      const unsigned m = 1 + static_cast<unsigned>(rng.uniform(3));
      const unsigned hd =
          BitVector::hammingDistance(BitVector(2, m), BitVector(2, prev));
      t.append({BitVector(2, m)});
      p.append(5.0 + static_cast<double>(hd));
      prev = m;
    }
  }
  FlowConfig cfg;
  cfg.miner.max_toggle_rate = 1.0;
  cfg.miner.max_singleton_run_fraction = 1.0;
  cfg.miner.mine_zero = true;
  CharacterizationFlow flow(cfg);
  flow.addTrainingTrace(t, p);
  const BuildReport rep = flow.build();
  EXPECT_GE(rep.refined_states, 1u);
  EXPECT_LT(flow.evaluateMre(t, p), 0.12);
}

TEST(Simulator, RegressionStateReadsTheDistanceToThePreviousRow) {
  // s0 (constant 1) and s1 (10 + 100 * HD) alternate on "m"; "d" and the
  // output "q" carry no atoms but count towards the distance. On entry,
  // s1 measures from the row just before it, a constant-mu row.
  trace::VariableSet vars;
  vars.add("m", 2, trace::VarKind::Input);
  vars.add("d", 8, trace::VarKind::Input);
  vars.add("q", 8, trace::VarKind::Output);
  std::vector<AtomicProposition> atoms(4);
  for (unsigned k = 0; k < 4; ++k) {
    atoms[k].lhs = 0;
    atoms[k].rhs_const = BitVector(2, k);
  }
  PropositionDomain domain(vars, atoms);
  std::vector<PropId> p;
  for (unsigned k = 0; k < 4; ++k) {
    p.push_back(
        domain.internRow({BitVector(2, k), BitVector(8, 0), BitVector(8, 0)}));
  }
  const std::vector<std::array<unsigned, 3>> stream = {
      {0, 0x00, 0x00}, {0, 0xFF, 0x0F}, {0, 0x0F, 0xF0}, {1, 0x0E, 0xF1},
      {1, 0xF1, 0xF1}, {0, 0x00, 0x00}, {0, 0x7F, 0x00}, {1, 0x80, 0x01}};
  for (const HammingScope scope :
       {HammingScope::Inputs, HammingScope::Interface}) {
    Psm psm;
    PowerState s0;
    s0.assertion.alts = {{{p[0], p[1], true}}};
    s0.power = PowerAttr::single(1.0, 0.1, 10);
    s0.initial_count = 1;
    PowerState s1;
    s1.assertion.alts = {{{p[1], p[0], true}}};
    s1.power = PowerAttr::single(50.0, 0.1, 10);
    s1.regression = stats::LinearFit{10.0, 100.0, 0.9, 0.8, 10};
    s1.regression_scope = scope;
    psm.addState(std::move(s0));
    psm.addState(std::move(s1));
    psm.addInitial(0);
    psm.addTransition({0, 1, p[1], 1});
    psm.addTransition({1, 0, p[0], 1});
    const PsmSimulator sim(psm, domain);
    auto session = sim.startSession();
    std::vector<double> estimates;
    for (const auto& [m, d, q] : stream) {
      estimates.push_back(session.step(
          {BitVector(2, m), BitVector(8, d), BitVector(8, q)}));
    }
    // Rows 4 and 8 enter s1: m flips one bit, d one bit (0x0F -> 0x0E)
    // then eight (0x7F -> 0x80), and q one bit each time. Row 5 stays.
    const bool io = scope == HammingScope::Interface;
    EXPECT_EQ(estimates, (std::vector<double>{1.0, 1.0, 1.0,
                                              io ? 310.0 : 210.0, 810.0, 1.0,
                                              1.0, io ? 1010.0 : 910.0}));
  }
}

TEST(Simulator, StrictExitSemanticsFlagsMoreViolations) {
  // Train a next-pattern exit (one-cycle mode 0 between modes), evaluate
  // with a longer mode-0 run: the generalized-exit rule absorbs it, the
  // strict rule reports a violation.
  const auto train = modeTrace({{1, 6}, {0, 1}, {2, 6}, {1, 6}, {0, 3},
                                {1, 6}});
  const auto eval = modeTrace({{1, 6}, {0, 4}, {2, 6}});
  SimOptions strict;
  strict.generalize_exits = false;
  Built b_strict = buildFlow({train}, {5.0, 1.0, 5.2}, strict);
  Built b_general = buildFlow({train}, {5.0, 1.0, 5.2});
  const SimResult r_strict = b_strict.flow->estimate(eval);
  const SimResult r_general = b_general.flow->estimate(eval);
  EXPECT_LE(r_general.wrong_predictions + r_general.unexpected_behaviours,
            r_strict.wrong_predictions + r_strict.unexpected_behaviours);
}

TEST(Simulator, StreamingSessionMatchesBatch) {
  const auto train = modeTrace({{0, 10}, {1, 5}, {0, 10}, {1, 5}});
  Built b = buildFlow({train}, {1.0, 2.0});
  const auto eval = modeTrace({{0, 7}, {1, 9}, {0, 3}});
  const SimResult batch = b.flow->estimate(eval);
  auto session = b.flow->simulator().startSession();
  for (std::size_t i = 0; i < eval.length(); ++i) {
    EXPECT_DOUBLE_EQ(session.step(eval.step(i)), batch.estimate[i]);
  }
  EXPECT_EQ(session.counts().wrong_predictions, batch.wrong_predictions);
  EXPECT_EQ(session.counts().lost_instants, batch.lost_instants);
}

TEST(Simulator, EmptyPsmIsRejected) {
  Psm psm;
  PropositionDomain domain{trace::VariableSet{}, {}};
  EXPECT_THROW(PsmSimulator(psm, domain), std::invalid_argument);
}

TEST(Simulator, WspPercentArithmetic) {
  SimResult r;
  EXPECT_DOUBLE_EQ(r.wspPercent(), 0.0);
  r.predictions = 4;
  r.wrong_predictions = 1;
  EXPECT_DOUBLE_EQ(r.wspPercent(), 25.0);
}

TEST(Simulator, WrongPredictionsNeverExceedPredictions) {
  // Violations on deterministic paths and failed resync guesses must not
  // be booked against the filter: wrong <= predictions structurally.
  const auto train = modeTrace({{0, 8}, {1, 5}, {0, 8}, {1, 5}, {2, 6},
                                {1, 5}, {0, 8}});
  Built b = buildFlow({train}, {1.0, 2.0, 3.0});
  const auto eval = modeTrace({{0, 8}, {2, 6}, {0, 4}, {2, 6}, {1, 5},
                               {0, 8}, {2, 3}, {1, 4}});
  const SimResult r = b.flow->estimate(eval);
  EXPECT_LE(r.wrong_predictions, r.predictions);
  EXPECT_LE(r.wspPercent(), 100.0);
}

/// Hand-built proposition domain: one 2-bit variable "m" with one Eq atom
/// per value, so PropId k <=> (m == k). Lets tests drive a Session against
/// a hand-built PSM with exact control over every observation.
struct TinyDomain {
  PropositionDomain domain;
  std::array<PropId, 4> p{};
};

TinyDomain tinyDomain() {
  std::vector<AtomicProposition> atoms;
  for (unsigned k = 0; k < 4; ++k) {
    AtomicProposition a;
    a.lhs = 0;
    a.rhs_const = BitVector(2, k);
    atoms.push_back(a);
  }
  TinyDomain d{PropositionDomain(modeVars(), std::move(atoms)), {}};
  for (unsigned k = 0; k < 4; ++k) {
    d.p[k] = d.domain.internRow({BitVector(2, k)});
  }
  return d;
}

std::vector<BitVector> modeRow(unsigned m) { return {BitVector(2, m)}; }

TEST(Simulator, PenalizedTransitionRedirectsNextChoice) {
  // Diamond with distinguishable branches: s0 -p1-> s1 (x3) | s2 (x1);
  // s1 accepts p1 until p0, s2 accepts p1 until p2. Choosing s1 and then
  // observing p2 is a wrong prediction; the transient penalty on s0 -> s1
  // must redirect the next exit choice to s2.
  TinyDomain d = tinyDomain();
  Psm psm;
  PowerState s0;
  s0.assertion.alts.push_back(PatternSeq{{d.p[0], d.p[1], true}});
  s0.power = PowerAttr::single(1.0, 0.1, 100);
  s0.initial_count = 1;
  PowerState s1;
  s1.assertion.alts.push_back(PatternSeq{{d.p[1], d.p[0], true}});
  s1.power = PowerAttr::single(5.0, 0.1, 60);
  PowerState s2;
  s2.assertion.alts.push_back(PatternSeq{{d.p[1], d.p[2], true}});
  s2.power = PowerAttr::single(9.0, 0.1, 20);
  psm.addState(std::move(s0));
  psm.addState(std::move(s1));
  psm.addState(std::move(s2));
  psm.addInitial(0);
  psm.addTransition({0, 1, d.p[1], 3});
  psm.addTransition({0, 2, d.p[1], 1});
  psm.addTransition({1, 0, d.p[0], 3});
  const PsmSimulator sim(psm, d.domain);
  auto session = sim.startSession();

  session.step(modeRow(0));  // sole matching initial state: not a choice
  session.step(modeRow(0));
  session.step(modeRow(1));  // exit choice among {s1, s2}: picks s1 (3:1)
  EXPECT_EQ(session.currentState(), 1);
  EXPECT_EQ(session.counts().predictions, 1u);
  EXPECT_EQ(session.counts().wrong_predictions, 0u);

  session.step(modeRow(2));  // s1's assertion dies: wrong prediction
  EXPECT_EQ(session.counts().wrong_predictions, 1u);
  EXPECT_EQ(session.counts().unexpected_behaviours, 0u);
  EXPECT_EQ(session.currentState(), 0);  // reverted to the last valid state
  EXPECT_TRUE(session.isLost());
  EXPECT_EQ(session.counts().lost_instants, 1u);

  session.step(modeRow(0));  // resynchronizes on s0: not a prediction
  EXPECT_FALSE(session.isLost());
  EXPECT_EQ(session.counts().predictions, 1u);
  EXPECT_EQ(session.counts().lost_instants, 1u);

  // The penalty is still active at the next exit: the 3:1 favourite s1 is
  // suppressed and the filter must route to s2 instead.
  const double power = session.step(modeRow(1));
  EXPECT_EQ(session.currentState(), 2);
  EXPECT_DOUBLE_EQ(power, 9.0);
  EXPECT_EQ(session.counts().predictions, 2u);
  EXPECT_EQ(session.counts().wrong_predictions, 1u);
  EXPECT_LE(session.counts().wrong_predictions, session.counts().predictions);
}

TEST(Simulator, FirstMispredictionPenalizesStateWithoutSource) {
  // The very first entry of a stream has no last-valid state to revert
  // to (revert_from_ is kNoState): a wrong initial choice must still be
  // penalized — via penalizeState — so the following resynchronization
  // cannot re-pick the branch that just failed.
  TinyDomain d = tinyDomain();
  Psm psm;
  PowerState s0;
  s0.assertion.alts.push_back(PatternSeq{{d.p[0], d.p[1], true}});
  s0.power = PowerAttr::single(1.0, 0.1, 100);
  PowerState s1;
  s1.assertion.alts.push_back(PatternSeq{{d.p[1], d.p[0], true}});
  s1.power = PowerAttr::single(5.0, 0.1, 60);
  s1.initial_count = 3;
  PowerState s2;
  s2.assertion.alts.push_back(PatternSeq{{d.p[1], d.p[2], true}});
  s2.power = PowerAttr::single(9.0, 0.1, 20);
  s2.initial_count = 1;
  psm.addState(std::move(s0));
  psm.addState(std::move(s1));
  psm.addState(std::move(s2));
  psm.addInitial(1);
  psm.addInitial(2);
  psm.addTransition({1, 0, d.p[0], 3});
  psm.addTransition({2, 0, d.p[2], 1});
  psm.addTransition({2, 2, d.p[2], 1});
  const PsmSimulator sim(psm, d.domain);
  auto session = sim.startSession();

  // Initial choice among {s1, s2}: pi favours s1 3:1.
  session.step(modeRow(1));
  EXPECT_EQ(session.currentState(), 1);
  EXPECT_EQ(session.counts().predictions, 1u);

  // p2 kills s1's assertion: a wrong prediction with no source state.
  session.step(modeRow(2));
  EXPECT_EQ(session.counts().wrong_predictions, 1u);
  EXPECT_EQ(session.counts().unexpected_behaviours, 0u);
  EXPECT_EQ(session.currentState(), kNoState);
  EXPECT_TRUE(session.isLost());
  EXPECT_EQ(session.counts().lost_instants, 1u);

  // Resynchronization on p1 again: both s1 and s2 match, but the
  // penalized belief suppresses s1 — without penalizeState the training
  // population tie-break would re-pick it. A resync guess is not a
  // prediction, so the counter must not move.
  session.step(modeRow(1));
  EXPECT_EQ(session.currentState(), 2);
  EXPECT_FALSE(session.isLost());
  EXPECT_EQ(session.counts().predictions, 1u);
  EXPECT_EQ(session.counts().wrong_predictions, 1u);
}

TEST(Simulator, CheckpointSurvivesLongDwell) {
  // A forgone exit must stay revisitable across a dwell far longer than
  // the backtrack bound: the buffer is bounded in *runs* of identical
  // observations, and a 200-row dwell is a single run. (Bounding raw rows
  // silently dropped the only correct reinterpretation on every long
  // dwell — the RAM WSP blow-up.)
  TinyDomain d = tinyDomain();
  Psm psm;
  PowerState sA;  // two alternatives: exit on p0 now, or absorb the p0 run
  sA.assertion.alts.push_back(PatternSeq{{d.p[1], d.p[0], true}});
  sA.assertion.alts.push_back(
      PatternSeq{{d.p[1], d.p[0], true}, {d.p[0], d.p[2], true}});
  sA.power = PowerAttr::single(2.0, 0.1, 10);
  sA.initial_count = 1;
  PowerState sB;
  sB.assertion.alts.push_back(PatternSeq{{d.p[0], d.p[3], true}});
  sB.power = PowerAttr::single(1.0, 0.1, 10);
  PowerState sC;
  sC.assertion.alts.push_back(PatternSeq{{d.p[3], d.p[1], true}});
  sC.power = PowerAttr::single(7.0, 0.1, 10);
  psm.addState(std::move(sA));
  psm.addState(std::move(sB));
  psm.addState(std::move(sC));
  psm.addInitial(0);
  psm.addTransition({0, 1, d.p[0], 1});
  psm.addTransition({1, 2, d.p[3], 1});
  const PsmSimulator sim(psm, d.domain);
  auto session = sim.startSession();

  session.step(modeRow(1));  // enter sA, both alternatives viable
  // First p0: alternative 0 wants to exit (checkpointed), alternative 1
  // survives into its second pattern and absorbs the dwell.
  for (int i = 0; i < 200; ++i) session.step(modeRow(0));
  // p3 kills the surviving interpretation; the checkpoint replays the
  // buffered 200-row run through sB, which exits to sC on p3.
  session.step(modeRow(3));
  EXPECT_EQ(session.currentState(), 2);
  EXPECT_FALSE(session.isLost());
  EXPECT_EQ(session.counts().wrong_predictions, 0u);
  EXPECT_EQ(session.counts().unexpected_behaviours, 0u);
  EXPECT_EQ(session.counts().lost_instants, 0u);
}


TEST(Simulator, RowVerdictsSumToTheSessionCounts) {
  // The diamond of PenalizedTransitionRedirectsNextChoice, fed random
  // modes: p1 in s0 is a choice, p2 in s1 a wrong prediction, p3 (no
  // pattern accepts it) an unexpected behaviour, and every recognition
  // after a lost row a resync.
  TinyDomain d = tinyDomain();
  Psm psm;
  PowerState s0;
  s0.assertion.alts.push_back(PatternSeq{{d.p[0], d.p[1], true}});
  s0.power = PowerAttr::single(1.0, 0.1, 100);
  s0.initial_count = 1;
  PowerState s1;
  s1.assertion.alts.push_back(PatternSeq{{d.p[1], d.p[0], true}});
  s1.power = PowerAttr::single(5.0, 0.1, 60);
  PowerState s2;
  s2.assertion.alts.push_back(PatternSeq{{d.p[1], d.p[2], true}});
  s2.power = PowerAttr::single(9.0, 0.1, 20);
  psm.addState(std::move(s0));
  psm.addState(std::move(s1));
  psm.addState(std::move(s2));
  psm.addInitial(0);
  psm.addTransition({0, 1, d.p[1], 3});
  psm.addTransition({0, 2, d.p[1], 1});
  psm.addTransition({1, 0, d.p[0], 3});
  const PsmSimulator sim(psm, d.domain);
  auto session = sim.startSession();

  common::Rng rng(99);
  PredictionCounts sum;
  for (int t = 0; t < 2000; ++t) {
    session.step(modeRow(static_cast<unsigned>(rng.uniform(4))));
    const RowVerdict& row = session.lastRow();
    sum.add(row);
    ASSERT_EQ(session.counts(), sum) << "row " << t;
    EXPECT_FALSE(row.has(RowVerdict::kWrongPrediction) &&
                 row.has(RowVerdict::kUnexpected))
        << "row " << t;
    EXPECT_EQ(row.has(RowVerdict::kLost), row.state == kNoState)
        << "row " << t;
    EXPECT_EQ(row.has(RowVerdict::kLost), session.isLost()) << "row " << t;
  }
  // The stream exercised every verdict kind.
  EXPECT_GT(sum.predictions, 0u);
  EXPECT_GT(sum.wrong_predictions, 0u);
  EXPECT_GT(sum.unexpected_behaviours, 0u);
  EXPECT_GT(sum.lost_instants, 0u);
  EXPECT_GT(sum.resyncs, 0u);
  EXPECT_LE(sum.wrong_predictions, sum.predictions);
}

// The quality monitor keeps one verdict per windowed row.
static_assert(sizeof(RowVerdict) <= 12, "a row verdict stays 12 bytes");

TEST(PredictionCounts, RemoveUndoesAdd) {
  RowVerdict synced;
  synced.state = 2;
  synced.predictions = 3;
  synced.flags = RowVerdict::kWrongPrediction | RowVerdict::kResync;
  RowVerdict lost;
  lost.flags = RowVerdict::kLost | RowVerdict::kUnexpected;

  PredictionCounts only_lost;
  only_lost.add(lost);

  PredictionCounts counts;
  counts.add(synced);
  counts.add(lost);
  EXPECT_EQ(counts.rows, 2u);
  EXPECT_EQ(counts.predictions, 3u);
  EXPECT_EQ(counts.wrong_predictions, 1u);
  EXPECT_EQ(counts.unexpected_behaviours, 1u);
  EXPECT_EQ(counts.lost_instants, 1u);
  EXPECT_EQ(counts.resyncs, 1u);
  counts.remove(synced);
  EXPECT_EQ(counts, only_lost);
  counts.remove(lost);
  EXPECT_EQ(counts, PredictionCounts{});
}

TEST(PredictionCounts, RatiosGuardEmptyDenominators) {
  PredictionCounts counts;
  EXPECT_DOUBLE_EQ(counts.wspPercent(), 0.0);
  EXPECT_DOUBLE_EQ(counts.lostPercent(), 0.0);
  EXPECT_DOUBLE_EQ(counts.resyncsPerKiloRow(), 0.0);
  counts.rows = 200;
  counts.lost_instants = 50;
  counts.resyncs = 3;
  EXPECT_DOUBLE_EQ(counts.lostPercent(), 25.0);
  EXPECT_DOUBLE_EQ(counts.resyncsPerKiloRow(), 15.0);
}

}  // namespace
}  // namespace psmgen::core
