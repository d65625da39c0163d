// Unit tests for the regression refinement of data-dependent states
// (paper Sec. IV, last step) on a synthetic trace pair whose power is an
// exact affine function of the input Hamming distance in two states and
// constant in a third.

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/refine.hpp"
#include "stats/descriptive.hpp"

namespace psmgen::core {
namespace {

using common::BitVector;

trace::VariableSet refineVars() {
  trace::VariableSet vars;
  vars.add("start", 1, trace::VarKind::Input);
  vars.add("data", 16, trace::VarKind::Input);
  vars.add("out", 8, trace::VarKind::Output);
  return vars;
}

struct Training {
  std::vector<trace::FunctionalTrace> functional;
  std::vector<trace::PowerTrace> power;
};

/// Appends `rows` random rows to training pair `id`, with power
/// intercept + slope * HD_in (HD_in against the previous row, 0 on the
/// first row of the trace), and returns their interval.
Interval appendRows(Training& tr, int id, std::size_t rows, double intercept,
                    double slope, common::Rng& rng) {
  auto& f = tr.functional[static_cast<std::size_t>(id)];
  auto& p = tr.power[static_cast<std::size_t>(id)];
  const std::size_t start = f.length();
  for (std::size_t r = 0; r < rows; ++r) {
    f.append({rng.bits(1), rng.bits(16), rng.bits(8)});
    unsigned hd = 0;
    if (f.length() > 1) {
      const std::size_t t = f.length() - 1;
      for (const int v : {0, 1}) {
        hd += BitVector::hammingDistance(f.value(t, v), f.value(t - 1, v));
      }
    }
    p.append(intercept + slope * hd);
  }
  return {start, f.length() - 1, id};
}

/// Each training row's Hamming distances, as the flow's walk over the rows
/// records them for the refinement, summed variable by variable over the
/// values rather than by the trace's own distance methods.
std::vector<std::vector<RowDistances>> distancesOf(const Training& tr) {
  std::vector<std::vector<RowDistances>> out;
  for (const trace::FunctionalTrace& f : tr.functional) {
    std::vector<RowDistances>& d = out.emplace_back(f.length());
    for (std::size_t t = 1; t < f.length(); ++t) {
      for (std::size_t v = 0; v < f.variables().size(); ++v) {
        const int id = static_cast<int>(v);
        const unsigned hd =
            BitVector::hammingDistance(f.value(t, id), f.value(t - 1, id));
        d[t].interface += hd;
        if (f.variables()[v].kind == trace::VarKind::Input) d[t].inputs += hd;
      }
    }
  }
  return out;
}

/// A state whose power attributes are those of its intervals' samples.
PowerState stateOver(const Training& tr, std::vector<Interval> intervals,
                     PropId p) {
  stats::RunningStats rs;
  for (const Interval& iv : intervals) {
    for (std::size_t t = iv.start; t <= iv.stop; ++t) {
      rs.add(tr.power[static_cast<std::size_t>(iv.trace_id)].at(t));
    }
  }
  PowerState s;
  s.assertion.alts.push_back(PatternSeq{{p, p + 1, true}});
  s.power = PowerAttr::single(rs.mean(), rs.stddev(), rs.count());
  s.intervals = std::move(intervals);
  return s;
}

/// States 0 and 1 draw 1 + 0.5 * HD_in and 2 + 1.5 * HD_in; state 2 draws a
/// constant 0.75. Their rows interleave over two traces.
struct Fixture {
  Training tr;
  Psm psm;

  Fixture() {
    tr.functional.assign(2, trace::FunctionalTrace(refineVars()));
    tr.power.assign(2, trace::PowerTrace());
    common::Rng rng(11);
    std::vector<std::vector<Interval>> intervals(3);
    for (int rep = 0; rep < 3; ++rep) {
      for (int id = 0; id < 2; ++id) {
        intervals[0].push_back(appendRows(tr, id, 40, 1.0, 0.5, rng));
        intervals[2].push_back(appendRows(tr, id, 25, 0.75, 0.0, rng));
        intervals[1].push_back(appendRows(tr, id, 30, 2.0, 1.5, rng));
      }
    }
    for (int s = 0; s < 3; ++s) {
      psm.addState(stateOver(tr, intervals[static_cast<std::size_t>(s)], s));
    }
    psm.addInitial(0);
    psm.state(0).initial_count = 1;
    psm.addTransition({0, 2, 1});
    psm.addTransition({2, 1, 3});
  }
};

TEST(Refine, FitsExactlyTheDataDependentStates) {
  Fixture fx;
  ASSERT_GT(fx.psm.state(0).power.cv(), RefineConfig{}.min_cv);
  ASSERT_GT(fx.psm.state(1).power.cv(), RefineConfig{}.min_cv);
  const RefineReport report = refineDataDependentStates(
      fx.psm, distancesOf(fx.tr), fx.tr.power, RefineConfig{});
  EXPECT_EQ(report.candidates, 2u);
  EXPECT_EQ(report.refined, 2u);

  const double intercepts[] = {1.0, 2.0};
  const double slopes[] = {0.5, 1.5};
  for (StateId id = 0; id < 2; ++id) {
    const PowerState& s = fx.psm.state(id);
    ASSERT_TRUE(s.regression.has_value()) << "state " << id;
    EXPECT_EQ(s.regression_scope, HammingScope::Inputs) << "state " << id;
    EXPECT_NEAR(s.regression->slope, slopes[id], 1e-9) << "state " << id;
    EXPECT_NEAR(s.regression->intercept, intercepts[id], 1e-9)
        << "state " << id;
    EXPECT_NEAR(s.regression->pearson_r, 1.0, 1e-12) << "state " << id;
    EXPECT_EQ(s.regression->n, s.power.n) << "state " << id;
  }
  EXPECT_FALSE(fx.psm.state(2).regression.has_value());
}

TEST(Refine, PoolGivesTheSequentialPsm) {
  Fixture sequential;
  Fixture pooled;
  ASSERT_TRUE(pooled.psm == sequential.psm);
  common::ThreadPool pool(4);
  const RefineReport a = refineDataDependentStates(
      sequential.psm, distancesOf(sequential.tr), sequential.tr.power,
      RefineConfig{});
  const RefineReport b = refineDataDependentStates(
      pooled.psm, distancesOf(pooled.tr), pooled.tr.power, RefineConfig{},
      &pool);
  EXPECT_TRUE(pooled.psm == sequential.psm);
  EXPECT_EQ(b.candidates, a.candidates);
  EXPECT_EQ(b.refined, a.refined);
  EXPECT_GT(pool.jobsExecuted(), 0u);
}

TEST(Refine, UnknownTraceThrowsBeforeAnyStateChanges) {
  common::ThreadPool pool(4);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                &pool}) {
    Fixture fx;
    // The second candidate names trace 2 of two.
    fx.psm.state(1).intervals.push_back({0, 3, 2});
    const Psm before = fx.psm;
    EXPECT_THROW(refineDataDependentStates(fx.psm, distancesOf(fx.tr),
                                           fx.tr.power, RefineConfig{}, p),
                 std::out_of_range)
        << (p == nullptr ? "no pool" : "pool");
    EXPECT_TRUE(fx.psm == before) << (p == nullptr ? "no pool" : "pool");
  }
}

}  // namespace
}  // namespace psmgen::core
