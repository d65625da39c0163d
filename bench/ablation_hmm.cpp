// Ablation C: HMM-based prediction vs frequency-only tie-breaking
// (DESIGN.md experiment index).
//
// Sec. V resolves non-determinism and resynchronization with a Hidden
// Markov Model (forward filtering + transition penalties). This bench
// compares it against a naive policy that breaks ties by training
// frequency alone, on the generalization workload (short-TS PSMs, long
// testset). It also exercises the strict per-alternative exit semantics
// (generalize_exits off) to quantify the contribution of the generalized
// exit rule.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  using namespace psmgen;
  const std::size_t eval_cycles = bench::cyclesArg(argc, argv, 20000);

  std::printf("== Ablation C: HMM filtering and exit semantics ==\n\n");
  core::Table table({"IP", "Variant", "MRE", "WSP", "Wrong", "Unexpected",
                     "Lost instants"});
  struct Variant {
    const char* name;
    bool use_hmm;
    bool generalize;
  };
  const Variant variants[] = {{"HMM + generalized exits", true, true},
                              {"frequency tie-break", false, true},
                              {"HMM, strict exits", true, false}};
  for (const ip::IpKind kind :
       {ip::IpKind::Ram, ip::IpKind::MultSum, ip::IpKind::Camellia}) {
    for (const Variant& v : variants) {
      core::FlowConfig cfg;
      cfg.sim.use_hmm = v.use_hmm;
      cfg.sim.generalize_exits = v.generalize;
      const bench::FlowRun run = bench::trainFlow(
          kind, ip::TestsetMode::Short, ip::shortTSPlan(kind), cfg);
      const bench::EvalResult e = bench::evaluateOn(
          *run.flow, kind, ip::TestsetMode::Long, eval_cycles, 0xAB1C);
      table.addRow({ip::ipName(kind), v.name,
                    common::formatDouble(100.0 * e.mre, 2) + " %",
                    common::formatDouble(e.wspPercent(), 1) + " %",
                    std::to_string(e.wrong_predictions),
                    std::to_string(e.unexpected_behaviours),
                    std::to_string(e.lost_instants)});
    }
    table.addSeparator();
  }
  table.print(std::cout);
  return 0;
}
