// Tests for the hierarchical-PSM extension (paper Sec. VII future work):
// partitioned gate-level characterization and the per-subcomponent flow.

#include <gtest/gtest.h>

#include "core/hierarchy.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"

namespace psmgen {
namespace {

using Partition = power::GateLevelEstimator::Partition;

TEST(Partitioned, TracesSumToWholeDevicePower) {
  auto device = ip::makeDevice(ip::IpKind::Camellia);
  power::EstimatorConfig cfg = ip::powerConfig(ip::IpKind::Camellia);
  cfg.noise_fraction = 0.0;  // exact additivity without measurement noise
  power::GateLevelEstimator est(*device, cfg);
  const std::vector<Partition> partitions = {{"feistel", {"d1", "d2"}},
                                             {"ks", {"ks_"}}};
  auto tb = ip::makeTestbench(ip::IpKind::Camellia, ip::TestsetMode::Short, 3);
  const auto part = est.runPartitioned(*tb, 500, partitions);
  ASSERT_EQ(part.power.size(), 3u);  // two partitions + rest
  EXPECT_EQ(part.names.back(), "rest");

  auto device2 = ip::makeDevice(ip::IpKind::Camellia);
  power::GateLevelEstimator whole(*device2, cfg);
  auto tb2 = ip::makeTestbench(ip::IpKind::Camellia, ip::TestsetMode::Short, 3);
  const auto ref = whole.run(*tb2, 500);
  ASSERT_EQ(ref.power.length(), 500u);
  for (std::size_t t = 0; t < 500; ++t) {
    double sum = 0.0;
    for (const auto& p : part.power) sum += p.at(t);
    EXPECT_NEAR(sum, ref.power.at(t), 1e-12 + 1e-9 * ref.power.at(t))
        << "instant " << t;
  }
  EXPECT_EQ(part.functional, ref.functional);
}

TEST(Partitioned, UnmatchedRegistersGoToRest) {
  auto device = ip::makeDevice(ip::IpKind::Ram);
  power::EstimatorConfig cfg = ip::powerConfig(ip::IpKind::Ram);
  cfg.noise_fraction = 0.0;
  power::GateLevelEstimator est(*device, cfg);
  auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Short, 1);
  const auto part = est.runPartitioned(*tb, 200, {{"nothing", {"zzz"}}});
  // All register activity lands in "rest"; the named partition only ever
  // sees zero power.
  for (std::size_t t = 0; t < 200; ++t) {
    EXPECT_DOUBLE_EQ(part.power[0].at(t), 0.0);
  }
}

TEST(Hierarchy, BuildsOneFlowPerComponentAndSumsEstimates) {
  auto device = ip::makeDevice(ip::IpKind::Camellia);
  power::GateLevelEstimator est(*device,
                                ip::powerConfig(ip::IpKind::Camellia));
  const std::vector<Partition> partitions = {{"datapath", {"d1", "d2"}},
                                             {"ks", {"ks_"}}};
  core::HierarchicalFlow hier;
  for (int k = 0; k < 2; ++k) {
    auto tb = ip::makeTestbench(ip::IpKind::Camellia, ip::TestsetMode::Short,
                                100 + k);
    auto part = est.runPartitioned(*tb, 2000, partitions);
    hier.addTrainingTrace(part.functional, part.power, part.names);
  }
  const auto reports = hier.build();
  ASSERT_EQ(reports.size(), 3u);
  ASSERT_EQ(hier.componentCount(), 3u);
  EXPECT_EQ(hier.componentName(0), "datapath");

  auto tb = ip::makeTestbench(ip::IpKind::Camellia, ip::TestsetMode::Short, 7);
  auto eval = est.runPartitioned(*tb, 1500, partitions);
  const auto estimate = hier.estimate(eval.functional);
  ASSERT_EQ(estimate.per_component.size(), 3u);
  ASSERT_EQ(estimate.total.size(), eval.functional.length());
  for (std::size_t t = 0; t < estimate.total.size(); ++t) {
    double sum = 0.0;
    for (const auto& c : estimate.per_component) sum += c.estimate[t];
    EXPECT_NEAR(estimate.total[t], sum, 1e-12);
  }

  const auto acc = hier.evaluate(eval.functional, eval.power);
  ASSERT_EQ(acc.component_mre.size(), 3u);
  double share = 0.0;
  for (const double s : acc.power_share) share += s;
  EXPECT_NEAR(share, 1.0, 1e-9);
  // The control-dominated "rest" partition is modelled far better than
  // the glitch-heavy datapath — the localization property.
  EXPECT_LT(acc.component_mre[2], acc.component_mre[0]);

  // A component reference that ends before the trace is refused.
  std::vector<trace::PowerTrace> short_ref = eval.power;
  short_ref[1] = short_ref[1].subtrace(0, 10);
  EXPECT_THROW(hier.evaluate(eval.functional, short_ref),
               std::invalid_argument);
}

TEST(Hierarchy, RejectsInconsistentInput) {
  core::HierarchicalFlow hier;
  trace::VariableSet vars;
  vars.add("x", 1, trace::VarKind::Input);
  trace::FunctionalTrace f(vars);
  f.append({common::BitVector(1, 0)});
  trace::PowerTrace p;
  p.append(1.0);
  EXPECT_THROW(hier.addTrainingTrace(f, {p}, {"a", "b"}),
               std::invalid_argument);
  EXPECT_THROW(hier.build(), std::logic_error);
  hier.addTrainingTrace(f, {p}, {"a"});
  EXPECT_THROW(hier.addTrainingTrace(f, {p}, {"b"}), std::invalid_argument);
}

}  // namespace
}  // namespace psmgen
