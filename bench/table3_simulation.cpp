// Table III reproduction: simulation times and accuracy evaluation.
//
// PSMs are generated from short-TS; then the long testset is simulated
// for 500000 instants (--cycles N to override) twice on the SystemC-lite
// kernel: once with the IP model alone ("IP sim.") and once with the IP
// connected to the PSM power monitor ("IP+PSMs"). The overhead column is
// the relative cost of co-simulating the power model. MRE and WSP report
// the accuracy of the short-TS PSMs on the long testset (the paper's
// generalization experiment). The bench also reports the PSM-only
// estimation time to exhibit the speedup over regenerating reference
// power traces with the gate-level estimator (the paper's
// "up to two orders of magnitude faster than PrimeTime PX"). The shape
// check at the end computes each of the paper's Sec. VI claims from this
// run's numbers and prints ✓ or ✗ beside it; the verdicts are reported,
// not gated.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "core/report.hpp"
#include "sysc/modules.hpp"

namespace {

struct PaperRow {
  double ip_sim, ip_psm, overhead, mre, wsp;
};

PaperRow paperRow(psmgen::ip::IpKind kind) {
  using psmgen::ip::IpKind;
  switch (kind) {
    case IpKind::Ram: return {13.8, 17.5, 26.4, 0.29, 0.0};
    case IpKind::MultSum: return {20.4, 24.2, 18.4, 3.97, 0.0};
    case IpKind::Aes: return {93.4, 98.7, 5.6, 3.11, 0.0};
    case IpKind::Camellia: return {277.1, 286.9, 3.5, 32.64, 20.0};
  }
  return {};
}

double seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One IP's numbers behind the shape check.
struct Measured {
  double overhead = 0.0;   ///< co-simulation overhead, percent
  double speedup = 0.0;    ///< gate-level reference time / PSM-only time
  double mre_ratio = 0.0;  ///< this table's MRE / Table II's (training) MRE
  std::size_t wrong = 0;
  std::size_t predictions = 0;
};

using PerIp = std::array<Measured, std::size(psmgen::ip::kAllIps)>;

/// The paper's Sec. VI reading of Table III, each claim computed from this
/// run's numbers and printed with ✓ where it holds and ✗ where it does not.
void printShapeCheck(const PerIp& m) {
  using namespace psmgen;
  const auto of = [&m](ip::IpKind kind) {
    return m[static_cast<std::size_t>(kind)];
  };
  const auto list = [&m](auto&& render) {
    std::string out;
    for (const ip::IpKind kind : ip::kAllIps) {
      if (!out.empty()) out += ", ";
      out += ip::ipName(kind) + " " +
             render(m[static_cast<std::size_t>(kind)]);
    }
    return out;
  };
  const auto overheads = list([](const Measured& x) {
    return common::formatDouble(x.overhead, 1) + " %";
  });
  bool ram_largest = true;
  bool camellia_smallest = true;
  bool only_camellia_wrong = of(ip::IpKind::Camellia).wrong > 0;
  for (const ip::IpKind kind : ip::kAllIps) {
    if (kind != ip::IpKind::Ram) {
      ram_largest = ram_largest &&
                    of(ip::IpKind::Ram).overhead > of(kind).overhead;
    }
    if (kind != ip::IpKind::Camellia) {
      camellia_smallest = camellia_smallest &&
                          of(ip::IpKind::Camellia).overhead < of(kind).overhead;
      only_camellia_wrong = only_camellia_wrong && of(kind).wrong == 0;
    }
  }
  std::printf("\nShape check (paper Sec. VI), on the numbers above:\n");
  std::printf("  The co-simulation overhead is largest for RAM: %s %s\n",
              overheads.c_str(), bench::mark(ram_largest));
  std::printf("  The overhead is smallest for Camellia: %s\n",
              bench::mark(camellia_smallest));
  std::printf("  PSM-only estimation is orders of magnitude faster than the "
              "gate-level reference, at least 100x: %s\n",
              list([](const Measured& x) {
                return common::formatDouble(x.speedup, 0) + "x " +
                       bench::mark(x.speedup >= 100.0);
              }).c_str());
  std::printf("  MREs match Table II's (the training MRE), at most 1.5x: "
              "%s\n",
              list([](const Measured& x) {
                return common::formatDouble(x.mre_ratio, 2) + "x " +
                       bench::mark(x.mre_ratio <= 1.5);
              }).c_str());
  std::printf("  Only Camellia shows wrong-state predictions: %s %s\n",
              list([](const Measured& x) {
                return std::to_string(x.wrong) + "/" +
                       std::to_string(x.predictions);
              }).c_str(),
              bench::mark(only_camellia_wrong));
  std::printf("  (verdicts are reported, not gated)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psmgen;
  const std::size_t cycles = bench::cyclesArg(argc, argv, 500000);
  bench::obsArgs(argc, argv);
  bench::ProfileScope profile(argc, argv);
  std::printf("== Table III: simulation times and accuracy evaluation ==\n");
  std::printf("(short-TS PSMs stimulated with the long testset, %zu "
              "instants)\n\n", cycles);

  core::Table table({"IP", "IP sim. (s)", "IP+PSMs (s)", "Overhead", "MRE",
                     "WSP", "PSM-only est. (s)", "paper:Ovh", "paper:MRE",
                     "paper:WSP"});
  PerIp measured{};
  for (const ip::IpKind kind : ip::kAllIps) {
    const bench::FlowRun run =
        bench::trainFlow(kind, ip::TestsetMode::Short, ip::shortTSPlan(kind));

    // --- IP alone on the SystemC-lite kernel -------------------------
    auto device = ip::makeDevice(kind);
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0x715EED);
    sysc::Signal<sysc::PortRow> ports;
    sysc::IpModule ip_module(*device, *tb, ports);
    double t_ip = 0.0;
    {
      sysc::Kernel kernel;
      kernel.add(ip_module);
      kernel.add(ports);
      const auto t0 = std::chrono::steady_clock::now();
      kernel.run(cycles);
      t_ip = seconds(t0);
    }

    // --- IP + PSM power monitor --------------------------------------
    sysc::Signal<double> power_w;
    sysc::PsmModule psm_module(run.flow->simulator(), ports, power_w);
    double t_ip_psm = 0.0;
    {
      sysc::Kernel kernel;
      kernel.add(ip_module);
      kernel.add(psm_module);
      kernel.add(ports);
      kernel.add(power_w);
      const auto t0 = std::chrono::steady_clock::now();
      kernel.run(cycles);
      t_ip_psm = seconds(t0);
    }
    const double overhead = t_ip > 0.0 ? 100.0 * (t_ip_psm - t_ip) / t_ip : 0.0;

    // --- accuracy + PSM-only estimation time -------------------------
    auto eval_device = ip::makeDevice(kind);
    power::GateLevelEstimator estimator(*eval_device, ip::powerConfig(kind));
    auto eval_tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0x715EED);
    const auto t_ref0 = std::chrono::steady_clock::now();
    auto pair = estimator.run(*eval_tb, cycles);
    const double t_reference = seconds(t_ref0);
    const auto t0 = std::chrono::steady_clock::now();
    const core::SimResult sim = run.flow->estimate(pair.functional);
    const double t_psm_only = seconds(t0);
    const double mre =
        trace::meanRelativeError(sim.estimate, pair.power.samples());
    measured[static_cast<std::size_t>(kind)] = {
        overhead, t_reference / t_psm_only,
        mre / bench::trainingMre(*run.flow), sim.wrong_predictions,
        sim.predictions};

    const PaperRow p = paperRow(kind);
    table.addRow({ip::ipName(kind), common::formatDouble(t_ip, 2),
                  common::formatDouble(t_ip_psm, 2),
                  common::formatDouble(overhead, 1) + " %",
                  common::formatDouble(100.0 * mre, 2) + " %",
                  common::formatDouble(sim.wspPercent(), 1) + " % (" +
                      std::to_string(sim.wrong_predictions) + "/" +
                      std::to_string(sim.predictions) + ")",
                  common::formatDouble(t_psm_only, 2),
                  common::formatDouble(p.overhead, 1) + " %",
                  common::formatDouble(p.mre, 2) + " %",
                  common::formatDouble(p.wsp, 0) + " %"});
  }
  table.print(std::cout);
  printShapeCheck(measured);
  return 0;
}
