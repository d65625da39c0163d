// Train once, serve many: the artifact + streaming runtime workflow.
//
//   1. Characterize the RAM IP and save the result as a versioned .psm
//      model artifact (serialize/psm_artifact.hpp).
//   2. In a "serving process" that never sees the training data, load the
//      artifact, stream an evaluation trace from disk in bounded memory
//      (runtime/streaming_reader.hpp), and predict power row by row with
//      the online predictor (runtime/online_predictor.hpp).
//   3. Show that the streamed estimates equal the fused
//      CharacterizationFlow::estimate path bit for bit.
//
// The same workflow is available from the CLI:
//   psmgen train ram --out ram.psm
//   psmgen predict --psm ram.psm --eval eval.csv
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/train_then_predict

#include <cstdio>
#include <string>

#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/trace_io.hpp"

int main() {
  using namespace psmgen;
  const std::string model_path = "/tmp/psmgen_example_ram.psm";
  const std::string eval_path = "/tmp/psmgen_example_ram_eval.csv";

  // --- 1. Train and persist --------------------------------------------
  auto device = ip::makeDevice(ip::IpKind::Ram);
  power::GateLevelEstimator estimator(*device,
                                      ip::powerConfig(ip::IpKind::Ram));
  core::CharacterizationFlow flow;
  for (const ip::TraceSpec& spec : ip::shortTSPlan(ip::IpKind::Ram)) {
    auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Short,
                                spec.seed);
    auto pair = estimator.run(*tb, spec.cycles);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  flow.build();
  serialize::savePsmModel(model_path, flow.psm(), flow.domain());
  std::printf("trained PSM: %zu states, %zu transitions -> %s\n",
              flow.psm().stateCount(), flow.psm().transitionCount(),
              model_path.c_str());

  // The workload to serve: an unseen trace, written to disk as CSV. In a
  // real deployment this comes from the functional simulator.
  auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 4242);
  auto reference = estimator.run(*tb, 20000);
  trace::saveFunctionalTrace(eval_path, reference.functional);

  // --- 2. Load and serve -----------------------------------------------
  // From here on, only the artifact and the trace file are used: this is
  // what a serving process does after the trainer exits.
  const serialize::PsmModel model = serialize::loadPsmModel(model_path);
  runtime::StreamingTraceReader reader(eval_path);
  runtime::OnlinePredictor predictor(model);

  std::vector<double> streamed;
  const runtime::PredictorStats stats = predictor.predictStream(
      reader, [&](std::size_t, double watts) { streamed.push_back(watts); });

  std::printf("served %zu rows at %.0f rows/s, one row resident\n",
              stats.rows, stats.rowsPerSecond());
  std::printf("  MRE vs gate-level reference: %.2f %%\n",
              100.0 * trace::meanRelativeError(streamed,
                                               reference.power.samples()));
  std::printf("  wrong-state predictions:     %.2f %%\n", stats.wspPercent());

  // --- 3. Fidelity check ------------------------------------------------
  const core::SimResult fused = flow.estimate(reference.functional);
  std::printf("streamed == fused estimate: %s\n",
              streamed == fused.estimate ? "yes (bit-identical)" : "NO");
  return streamed == fused.estimate ? 0 : 1;
}
