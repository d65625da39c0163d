// Unit tests for the SystemC-lite kernel (delta-cycle signal semantics,
// module scheduling), the IP/PSM co-simulation modules, DOT export and
// the SystemC model generator.

#include <gtest/gtest.h>

#include "core/codegen.hpp"
#include "core/dot_export.hpp"
#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "sysc/modules.hpp"

namespace psmgen {
namespace {

using common::BitVector;

TEST(SyscKernel, SignalHasDeltaSemantics) {
  sysc::Signal<int> sig(1);

  struct Writer final : sysc::Module {
    sysc::Signal<int>& s;
    explicit Writer(sysc::Signal<int>& sig_) : Module("w"), s(sig_) {}
    void onClock(std::size_t cycle) override {
      s.write(static_cast<int>(cycle) + 10);
    }
  } writer(sig);

  struct Reader final : sysc::Module {
    sysc::Signal<int>& s;
    std::vector<int> seen;
    explicit Reader(sysc::Signal<int>& sig_) : Module("r"), s(sig_) {}
    void onClock(std::size_t) override { seen.push_back(s.read()); }
  } reader(sig);

  sysc::Kernel kernel;
  // Reader registered AFTER writer still sees the previous cycle's value:
  // writes only commit in the update phase.
  kernel.add(writer);
  kernel.add(reader);
  kernel.add(sig);
  kernel.run(3);
  EXPECT_EQ(reader.seen, (std::vector<int>{1, 10, 11}));
}

TEST(SyscKernel, ResetRunsBeforeFirstCycle) {
  struct Probe final : sysc::Module {
    int resets = 0;
    std::size_t clocks = 0;
    Probe() : Module("p") {}
    void onReset() override { ++resets; }
    void onClock(std::size_t) override { ++clocks; }
  } probe;
  sysc::Kernel kernel;
  kernel.add(probe);
  kernel.run(5);
  kernel.run(2);
  EXPECT_EQ(probe.resets, 2);
  EXPECT_EQ(probe.clocks, 7u);
}

TEST(SyscCosim, PsmModuleMatchesBatchSimulation) {
  // Train a RAM flow, then co-simulate IP+PSM on the kernel and check the
  // accumulated estimate equals the batch simulator on the same trace
  // (the PSM sees each row one cycle late through the signal, so compare
  // sums over the same cycle count).
  auto device = ip::makeDevice(ip::IpKind::Ram);
  power::GateLevelEstimator est(*device, ip::powerConfig(ip::IpKind::Ram));
  core::CharacterizationFlow flow;
  for (const auto& spec : ip::shortTSPlan(ip::IpKind::Ram)) {
    auto tb =
        ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Short, spec.seed);
    auto pair = est.run(*tb, 2000);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  flow.build();

  constexpr std::size_t kCycles = 3000;
  auto cosim_device = ip::makeDevice(ip::IpKind::Ram);
  auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 11);
  sysc::Signal<sysc::PortRow> ports;
  sysc::Signal<double> power_w;
  sysc::IpModule ip_module(*cosim_device, *tb, ports);
  sysc::PsmModule psm_module(flow.simulator(), ports, power_w);
  sysc::Kernel kernel;
  kernel.add(ip_module);
  kernel.add(psm_module);
  kernel.add(ports);
  kernel.add(power_w);
  kernel.run(kCycles);
  // The PSM module skipped cycle 0 (no committed row yet).
  EXPECT_EQ(psm_module.cycles(), kCycles - 1);

  auto batch_device = ip::makeDevice(ip::IpKind::Ram);
  auto tb2 = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 11);
  rtl::Simulator sim(*batch_device);
  const trace::FunctionalTrace t = sim.run(*tb2, kCycles - 1);
  const core::SimResult batch = flow.estimate(t);
  double batch_total = 0.0;
  for (const double w : batch.estimate) batch_total += w;
  EXPECT_NEAR(psm_module.totalEstimatedPower(), batch_total,
              1e-9 * std::max(1.0, batch_total));
}

class SmallFlow : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::VariableSet vars;
    vars.add("m", 2, trace::VarKind::Input);
    trace::FunctionalTrace t(vars);
    trace::PowerTrace p;
    for (int rep = 0; rep < 10; ++rep) {
      for (int i = 0; i < 5; ++i) {
        t.append({BitVector(2, 0)});
        p.append(1.0);
      }
      for (int i = 0; i < 5; ++i) {
        t.append({BitVector(2, 1)});
        p.append(2.0);
      }
    }
    core::FlowConfig cfg;
    cfg.miner.max_toggle_rate = 1.0;
    cfg.miner.max_singleton_run_fraction = 1.0;
    flow_ = std::make_unique<core::CharacterizationFlow>(cfg);
    flow_->addTrainingTrace(t, p);
    flow_->build();
  }
  std::unique_ptr<core::CharacterizationFlow> flow_;
};

TEST_F(SmallFlow, DotExportContainsStatesAndTransitions) {
  const std::string dot =
      core::toDot(flow_->psm(), flow_->domain(), "demo");
  EXPECT_NE(dot.find("digraph demo"), std::string::npos);
  for (const auto& s : flow_->psm().states()) {
    std::string node = "s";
    node += std::to_string(s.id);
    node += " [";
    EXPECT_NE(dot.find(node), std::string::npos);
  }
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("mu="), std::string::npos);
}

TEST_F(SmallFlow, CodegenEmitsSystemCModule) {
  core::CodegenOptions opt;
  opt.module_name = "ram_psm";
  const std::string src =
      core::generateModel(flow_->psm(), flow_->domain(), opt);
  EXPECT_NE(src.find("SC_MODULE(ram_psm)"), std::string::npos);
  EXPECT_NE(src.find("#include <systemc.h>"), std::string::npos);
  EXPECT_NE(src.find("kAtoms"), std::string::npos);
  EXPECT_NE(src.find("kSignatures"), std::string::npos);
  EXPECT_NE(src.find("kStates"), std::string::npos);
  EXPECT_NE(src.find("kTransitions"), std::string::npos);
  EXPECT_NE(src.find("kPi"), std::string::npos);
  EXPECT_NE(src.find("double step("), std::string::npos);
}

TEST_F(SmallFlow, CodegenPlainStyleOmitsSystemC) {
  core::CodegenOptions opt;
  opt.module_name = "plain_psm";
  opt.style = core::CodegenStyle::Plain;
  const std::string src =
      core::generateModel(flow_->psm(), flow_->domain(), opt);
  EXPECT_EQ(src.find("SC_MODULE"), std::string::npos);
  EXPECT_NE(src.find("class plain_psm"), std::string::npos);
}

}  // namespace
}  // namespace psmgen
