// Reproduces the paper's worked example (Fig. 3 and Fig. 5): a functional
// trace over v1..v4, its proposition trace p_a p_a p_a p_b p_b p_b p_c p_d,
// the three mined assertions p_a U p_b, p_b U p_c, p_c X p_d with their
// intervals [0,2], [3,5], [6,6], and the resulting 3-state chain PSM whose
// transitions are enabled by p_b and p_c.

#include <gtest/gtest.h>

#include "core/generator.hpp"
#include "core/miner.hpp"
#include "core/xu_automaton.hpp"

namespace psmgen {
namespace {

using common::BitVector;
using core::kNoProp;
using core::PropId;

trace::FunctionalTrace paperTrace() {
  trace::VariableSet vars;
  vars.add("v1", 1, trace::VarKind::Input);
  vars.add("v2", 1, trace::VarKind::Input);
  vars.add("v3", 4, trace::VarKind::Input);
  vars.add("v4", 4, trace::VarKind::Output);
  trace::FunctionalTrace t(vars);
  auto row = [&](bool v1, bool v2, unsigned v3, unsigned v4) {
    t.append({BitVector(1, v1), BitVector(1, v2), BitVector(4, v3),
              BitVector(4, v4)});
  };
  // Fig. 3 functional trace (8 instants).
  row(true, false, 3, 1);
  row(true, false, 3, 1);
  row(true, false, 3, 1);
  row(false, true, 3, 3);
  row(false, true, 4, 4);
  row(false, true, 2, 2);
  row(true, true, 0, 0);
  row(true, true, 3, 1);
  return t;
}

trace::PowerTrace paperPower() {
  trace::PowerTrace p;
  for (const double w :
       {3.349, 3.339, 3.353, 1.902, 1.906, 1.944, 3.350, 3.343}) {
    p.append(w);
  }
  return p;
}

class PaperExample : public ::testing::Test {
 protected:
  void SetUp() override {
    functional_ = paperTrace();
    core::MinerConfig cfg;
    // Tiny trace: disable the statistical noise filters sized for long
    // training runs so every informative atom survives.
    cfg.max_toggle_rate = 1.0;
    cfg.max_singleton_run_fraction = 1.0;
    // The paper's example predicates with boolean and relational atoms
    // only (v1=true, v2=false, v3>v4, v3=v4); disable constant mining so
    // the proposition trace matches Fig. 3 exactly.
    cfg.max_constants_per_var = 0;
    cfg.mine_zero = false;
    core::AssertionMiner miner(cfg);
    domain_ = std::make_unique<core::PropositionDomain>(
        functional_.variables(), miner.mine({&functional_}).atoms);
    gamma_ = core::AssertionMiner::tracePropositions(*domain_, functional_);
  }

  trace::FunctionalTrace functional_;
  std::unique_ptr<core::PropositionDomain> domain_;
  core::PropositionTrace gamma_;
};

TEST_F(PaperExample, MinerFindsTheRelationalAtoms) {
  // Atoms over v1, v2 and the v3-v4 relations of Fig. 3 must be present.
  const auto& vars = domain_->variables();
  std::vector<std::string> names;
  for (const auto& a : domain_->atoms()) names.push_back(a.toString(vars));
  EXPECT_NE(std::find(names.begin(), names.end(), "v1=1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "v2=1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "v3>v4"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "v3=v4"), names.end());
}

TEST_F(PaperExample, PropositionTraceMatchesFig3) {
  // p_a on [0,2], p_b on [3,5], p_c at 6, p_d at 7 — four distinct
  // propositions with the right repetition structure.
  ASSERT_EQ(gamma_.length(), 8u);
  const PropId pa = gamma_.at(0);
  const PropId pb = gamma_.at(3);
  const PropId pc = gamma_.at(6);
  const PropId pd = gamma_.at(7);
  EXPECT_EQ(gamma_.at(1), pa);
  EXPECT_EQ(gamma_.at(2), pa);
  EXPECT_EQ(gamma_.at(4), pb);
  EXPECT_EQ(gamma_.at(5), pb);
  EXPECT_NE(pa, pb);
  EXPECT_NE(pb, pc);
  EXPECT_NE(pc, pd);
  EXPECT_NE(pa, pc);
  EXPECT_NE(pa, pd);
  EXPECT_NE(pb, pd);
}

TEST_F(PaperExample, XuAutomatonMinesTheThreeAssertions) {
  core::XuAutomaton xu(gamma_);
  const PropId pa = gamma_.at(0);
  const PropId pb = gamma_.at(3);
  const PropId pc = gamma_.at(6);
  const PropId pd = gamma_.at(7);

  auto a1 = xu.next();
  ASSERT_TRUE(a1.has_value());
  EXPECT_TRUE(a1->pattern.is_until);
  EXPECT_EQ(a1->pattern.p, pa);
  EXPECT_EQ(a1->pattern.q, pb);
  EXPECT_EQ(a1->start, 0u);
  EXPECT_EQ(a1->stop, 2u);

  auto a2 = xu.next();
  ASSERT_TRUE(a2.has_value());
  EXPECT_TRUE(a2->pattern.is_until);
  EXPECT_EQ(a2->pattern.p, pb);
  EXPECT_EQ(a2->pattern.q, pc);
  EXPECT_EQ(a2->start, 3u);
  EXPECT_EQ(a2->stop, 5u);

  auto a3 = xu.next();
  ASSERT_TRUE(a3.has_value());
  EXPECT_FALSE(a3->pattern.is_until);
  EXPECT_EQ(a3->pattern.p, pc);
  EXPECT_EQ(a3->pattern.q, pd);
  EXPECT_EQ(a3->start, 6u);
  EXPECT_EQ(a3->stop, 6u);

  // p_d closed the last pattern; it does not become a state of its own.
  EXPECT_FALSE(xu.next().has_value());
}

TEST_F(PaperExample, GeneratorBuildsTheThreeStateChain) {
  const core::Psm psm = core::PsmGenerator::generate(gamma_, paperPower(), 0);
  ASSERT_EQ(psm.stateCount(), 3u);
  ASSERT_EQ(psm.transitionCount(), 2u);
  EXPECT_TRUE(psm.isChain());
  ASSERT_EQ(psm.initialStates().size(), 1u);
  EXPECT_EQ(psm.initialStates().front(), 0);

  // Power attributes of the first state: mean of 3.349, 3.339, 3.353.
  const auto& s0 = psm.state(0);
  EXPECT_NEAR(s0.power.mean, (3.349 + 3.339 + 3.353) / 3.0, 1e-12);
  EXPECT_EQ(s0.power.n, 3u);
  const auto& s1 = psm.state(1);
  EXPECT_NEAR(s1.power.mean, (1.902 + 1.906 + 1.944) / 3.0, 1e-12);
  // The next-pattern state covers one instant only (Sec. IV-A Case 1).
  const auto& s2 = psm.state(2);
  EXPECT_EQ(s2.power.n, 1u);
  EXPECT_NEAR(s2.power.mean, 3.350, 1e-12);

  // Transitions are enabled by the exit propositions p_b and p_c.
  EXPECT_EQ(psm.transitions()[0].enabling, gamma_.at(3));
  EXPECT_EQ(psm.transitions()[1].enabling, gamma_.at(6));
}

}  // namespace
}  // namespace psmgen
