// Table II reproduction: characteristics of the generated PSMs.
//
// Above the separator: PSMs generated from the functional-verification
// testsets (short-TS, same total lengths as the paper: RAM 34130,
// MultSum 12002, AES 16504, Camellia 78004 instants). Below: PSMs from
// the long randomized testsets (500000 instants, override with
// --cycles N). Columns follow the paper: testset length, reference
// power-trace generation time (PrimeTime-PX surrogate), PSM generation
// time, states, transitions, and the MRE of the PSM estimate against the
// reference power of the same testset.
//
// A third block reports PSM-generation scaling: the Camellia short-TS
// workload characterized at 1/2/4/... threads, with the wall-clock
// speedup over the sequential run and a check that the combined PSM and
// the proposition domain are identical to the 1-thread ones (the
// determinism contract of FlowConfig::num_threads). Pass "--threads N"
// to also run the two paper blocks multi-threaded.
//
// The shape check at the end computes each of the paper's Sec. VI claims
// from this run's MREs and prints ✓ or ✗ beside it; the verdicts are
// reported, not gated. The exit code is 1 when the scaling block or the
// observability check finds a difference, and 0 otherwise.

#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "core/report.hpp"

namespace {

struct PaperRow {
  std::size_t ts;
  double px, gen;
  std::size_t states, trans;
  double mre;
};

PaperRow paperShort(psmgen::ip::IpKind kind) {
  using psmgen::ip::IpKind;
  switch (kind) {
    case IpKind::Ram: return {34130, 169.0, 1.2, 9, 18, 0.30};
    case IpKind::MultSum: return {12002, 19.5, 0.6, 2, 2, 4.03};
    case IpKind::Aes: return {16504, 144.8, 0.7, 5, 7, 3.45};
    case IpKind::Camellia: return {78004, 74.5, 5.7, 5, 10, 32.66};
  }
  return {};
}

PaperRow paperLong(psmgen::ip::IpKind kind) {
  using psmgen::ip::IpKind;
  switch (kind) {
    case IpKind::Ram: return {500000, 5316.7, 20.1, 9, 18, 0.29};
    case IpKind::MultSum: return {500000, 750.1, 22.6, 3, 4, 3.27};
    case IpKind::Aes: return {500000, 3626.0, 115.6, 13, 29, 3.09};
    case IpKind::Camellia: return {500000, 2699.0, 221.2, 5, 11, 32.64};
  }
  return {};
}

/// Per-IP MRE in percent, indexed by ip::IpKind.
using IpMre = std::array<double, std::size(psmgen::ip::kAllIps)>;

double at(const IpMre& mre, psmgen::ip::IpKind kind) {
  return mre[static_cast<std::size_t>(kind)];
}

IpMre addBlock(psmgen::core::Table& table, psmgen::ip::TestsetMode mode,
               std::size_t long_cycles, unsigned threads) {
  using namespace psmgen;
  IpMre mres{};
  for (const ip::IpKind kind : ip::kAllIps) {
    const auto plan = mode == ip::TestsetMode::Short
                          ? ip::shortTSPlan(kind)
                          : ip::longTSPlan(kind, long_cycles);
    core::FlowConfig config;
    config.num_threads = threads;
    const bench::FlowRun run = bench::trainFlow(kind, mode, plan, config);
    const double mre = bench::trainingMre(*run.flow);
    mres[static_cast<std::size_t>(kind)] = 100.0 * mre;
    const PaperRow p = mode == ip::TestsetMode::Short ? paperShort(kind)
                                                      : paperLong(kind);
    table.addRow({ip::ipName(kind), std::to_string(run.total_cycles),
                  common::formatDouble(run.px_seconds, 2),
                  common::formatDouble(run.report.generation_seconds, 2),
                  std::to_string(run.report.states),
                  std::to_string(run.report.transitions),
                  common::formatDouble(100.0 * mre, 2) + " %",
                  std::to_string(p.states), std::to_string(p.trans),
                  common::formatDouble(p.mre, 2) + " %"});
  }
  return mres;
}

/// PSM-generation scaling on the Camellia short-TS workload: the
/// training traces are generated once, then the characterization runs at
/// each thread count on identical inputs. Reports build() wall-clock
/// (the Table II "PSMs gen." column), speedup over 1 thread, and whether
/// the combined PSM and the proposition domain are identical to the
/// sequential ones; returns false on any difference.
bool printScaling() {
  using namespace psmgen;
  const ip::IpKind kind = ip::IpKind::Camellia;
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
  std::vector<power::GateLevelEstimator::Result> pairs;
  std::size_t total_cycles = 0;
  for (const ip::TraceSpec& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    pairs.push_back(estimator.run(*tb, spec.cycles));
    total_cycles += spec.cycles;
  }

  std::printf("\n== PSM generation scaling: %s short-TS "
              "(%zu traces, %zu instants) ==\n",
              ip::ipName(kind).c_str(), pairs.size(), total_cycles);
  const unsigned hw = common::ThreadPool::resolveThreads(0);
  std::printf("(hardware threads available: %u)\n\n", hw);

  std::vector<unsigned> counts{1, 2, 4};
  if (hw > 4) counts.push_back(hw);

  core::Table table({"Threads", "PSMs gen. (s)", "Speedup",
                     "PSM and domain identical to 1-thread"});
  core::Psm baseline;
  std::optional<core::PropositionDomain> baseline_domain;
  double baseline_seconds = 0.0;
  bool all_identical = true;
  for (const unsigned threads : counts) {
    core::FlowConfig config;
    config.num_threads = threads;
    core::CharacterizationFlow flow(config);
    for (const auto& pair : pairs) {
      flow.addTrainingTrace(pair.functional, pair.power);
    }
    const core::BuildReport report = flow.build();
    std::string identical = "-";
    if (threads == 1) {
      baseline = flow.psm();
      baseline_domain = flow.domain();
      baseline_seconds = report.generation_seconds;
    } else {
      const bool same =
          flow.psm() == baseline && flow.domain() == *baseline_domain;
      all_identical = all_identical && same;
      identical = same ? "yes" : "NO";
    }
    table.addRow({std::to_string(threads),
                  common::formatDouble(report.generation_seconds, 3),
                  common::formatDouble(
                      baseline_seconds / report.generation_seconds, 2) + "x",
                  identical});
  }
  table.print(std::cout);
  return all_identical;
}

/// Determinism contract of the observability layer: the same workload
/// characterized with the registry + tracer fully enabled must produce a
/// PSM and per-instant estimates bit-identical to the uninstrumented run
/// (instrumentation only observes). Uses MultSum — the cheapest IP — and
/// returns false (the harness exits 1) on any mismatch.
bool verifyObsIdentity() {
  using namespace psmgen;
  const ip::IpKind kind = ip::IpKind::MultSum;
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
  std::vector<power::GateLevelEstimator::Result> pairs;
  for (const ip::TraceSpec& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    pairs.push_back(estimator.run(*tb, spec.cycles));
  }

  const bool metrics_was = obs::metrics().enabled();
  const bool tracer_was = obs::tracer().enabled();
  auto characterize = [&](bool instrumented) {
    obs::metrics().setEnabled(instrumented);
    obs::tracer().setEnabled(instrumented);
    core::CharacterizationFlow flow{core::FlowConfig{}};
    for (const auto& pair : pairs) {
      flow.addTrainingTrace(pair.functional, pair.power);
    }
    flow.build();
    std::vector<std::vector<double>> estimates;
    for (const auto& pair : pairs) {
      estimates.push_back(flow.estimate(pair.functional).estimate);
    }
    return std::make_pair(flow.psm(), std::move(estimates));
  };
  const auto plain = characterize(false);
  const auto instrumented = characterize(true);
  obs::metrics().setEnabled(metrics_was);
  obs::tracer().setEnabled(tracer_was);

  const bool psm_ok = plain.first == instrumented.first;
  const bool est_ok = plain.second == instrumented.second;
  std::printf("\n== Observability identity check (MultSum short-TS) ==\n"
              "instrumented PSM identical: %s; estimates bit-identical: %s\n",
              psm_ok ? "yes" : "NO", est_ok ? "yes" : "NO");
  return psm_ok && est_ok;
}

/// The paper's Sec. VI reading of Table II, each claim computed from this
/// run's MREs and printed with ✓ where it holds and ✗ where it does not.
void printShapeCheck(const IpMre& short_mre, const IpMre& long_mre) {
  using namespace psmgen;
  using ip::IpKind;
  const auto pct = [](double v) { return common::formatDouble(v, 2) + " %"; };
  const double ram = at(short_mre, IpKind::Ram);
  const double multsum = at(short_mre, IpKind::MultSum);
  const double aes = at(short_mre, IpKind::Aes);
  const double camellia = at(short_mre, IpKind::Camellia);
  const double others = std::max({ram, multsum, aes});
  std::string listed;
  std::string ratios;
  for (const IpKind kind : ip::kAllIps) {
    const std::string sep = listed.empty() ? "" : ", ";
    listed += sep + ip::ipName(kind) + " " + pct(at(short_mre, kind));
    const double ratio = at(long_mre, kind) / at(short_mre, kind);
    ratios += sep + ip::ipName(kind) + " " + common::formatDouble(ratio, 2) +
              " " + bench::mark(ratio <= 1.5);
  }
  std::printf("\nShape check (paper Sec. VI), on the MREs above:\n");
  std::printf("  RAM has the lowest short-TS MRE: %s %s\n", listed.c_str(),
              bench::mark(ram < std::min({multsum, aes, camellia})));
  std::printf("  MultSum is a bit higher than RAM: %s > %s %s\n",
              pct(multsum).c_str(), pct(ram).c_str(),
              bench::mark(multsum > ram));
  std::printf("  AES is low, below MultSum: %s < %s %s\n", pct(aes).c_str(),
              pct(multsum).c_str(), bench::mark(aes < multsum));
  std::printf("  Camellia is an order of magnitude worse, at least 10x every "
              "other IP: %sx %s\n",
              common::formatDouble(camellia / others, 2).c_str(),
              bench::mark(camellia >= 10.0 * others));
  std::printf("  Long-TS MREs are close to short-TS, long/short <= 1.5x: "
              "%s\n",
              ratios.c_str());
  std::printf("  (verdicts are reported, not gated)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psmgen;
  const std::size_t long_cycles = bench::cyclesArg(argc, argv, 500000);
  const unsigned threads = bench::threadsArg(argc, argv, 1);
  bench::obsArgs(argc, argv);
  bench::ProfileScope profile(argc, argv);

  std::printf("== Table II: characteristics of the generated PSMs ==\n");
  std::printf("(top block: short-TS / verification testsets; bottom block: "
              "long-TS, %zu instants; %u thread(s))\n\n",
              long_cycles, threads);

  core::Table table({"IP", "TS", "PX (s)", "PSMs gen. (s)", "States",
                     "Trans.", "MRE", "paper:States", "paper:Trans.",
                     "paper:MRE"});
  const IpMre short_mre =
      addBlock(table, ip::TestsetMode::Short, long_cycles, threads);
  table.addSeparator();
  const IpMre long_mre =
      addBlock(table, ip::TestsetMode::Long, long_cycles, threads);
  table.print(std::cout);

  const bool scaling_identical = printScaling();
  const bool obs_identical = verifyObsIdentity();
  printShapeCheck(short_mre, long_mre);
  obs::flushOutputs();
  return scaling_identical && obs_identical ? 0 : 1;
}
