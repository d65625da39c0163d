// Serving-path benchmark for the train-once / serve-many split: artifact
// cold-load time and streaming prediction throughput on the paper's four
// IPs (no analogue in the paper's tables, hence "Table IV" — the paper
// evaluates the fused generate+estimate flow only).
//
// For each IP, a PSM is trained on short-TS and saved as a .psm artifact;
// the evaluation trace is written out as CSV. The measured quantities are
// (a) cold-load: loadPsmModel wall time, including the HMM integrity
// re-derivation, (b) streaming throughput: rows/second through
// StreamingTraceReader + OnlinePredictor, one reused row at a time, and
// (c) prediction accuracy vs the gate-level ground truth: WSP%, lost%,
// resyncs/kilorow (predict.* gauges) plus power MAE/MRE (bench.* gauges)
// — the quantities scripts/accuracy_gate.py pins against BENCH_table4.json.
//
// stdout is a JSON array of {"ip": ..., "metrics": {...}} objects where
// each "metrics" value is one full dump of the obs metrics registry
// (schema "psmgen.metrics.v1") — the very same schema `psmgen
// --metrics-out` writes, so runtime metrics and bench results can be
// tracked and diffed with one set of tooling. The bench-only measurements
// land in `bench.*` gauges; the predictor counters (predict.*) are
// filled by the instrumented pipeline itself. --cycles N overrides the
// eval length.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/trace_io.hpp"

namespace {

double seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t fileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return is ? static_cast<std::size_t>(is.tellg()) : 0;
}

/// Indents every line of a JSON blob so the embedded registry dump reads
/// nicely inside the per-IP array element.
std::string indented(const std::string& json, const std::string& pad) {
  std::string out;
  out.reserve(json.size());
  for (const char c : json) {
    out.push_back(c);
    if (c == '\n') out += pad;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psmgen;
  const std::size_t cycles = bench::cyclesArg(argc, argv, 200000);
  // The registry is the result sink here, so it runs enabled even
  // without --metrics-out.
  bench::obsArgs(argc, argv, /*force_metrics=*/true);
  bench::ProfileScope profile(argc, argv);
  const std::string dir = "/tmp";

  std::printf("[\n");
  bool first = true;
  for (const ip::IpKind kind : ip::kAllIps) {
    // One registry generation per IP: reset, run, dump.
    obs::metrics().reset();
    const bench::FlowRun run =
        bench::trainFlow(kind, ip::TestsetMode::Short, ip::shortTSPlan(kind));
    const std::string model_path =
        dir + "/psmgen_bench_" + ip::ipName(kind) + ".psm";
    const std::string trace_path =
        dir + "/psmgen_bench_" + ip::ipName(kind) + "_eval.csv";
    serialize::savePsmModel(model_path, run.flow->psm(), run.flow->domain());

    auto device = ip::makeDevice(kind);
    power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0x715EED);
    auto pair = estimator.run(*tb, cycles);
    trace::saveFunctionalTrace(trace_path, pair.functional);

    // Cold load: averaged over a few runs, the artifact is tiny and the
    // timer granularity would otherwise dominate.
    const int kLoads = 10;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kLoads; ++i) {
      const serialize::PsmModel m = serialize::loadPsmModel(model_path);
      (void)m;
    }
    const double load_s = seconds(t0) / kLoads;

    const serialize::PsmModel model = serialize::loadPsmModel(model_path);
    runtime::StreamingTraceReader reader(trace_path);
    runtime::OnlinePredictor predictor(model);
    // Accuracy vs the gate-level ground truth, accumulated row-by-row in
    // the streaming sink (the power trace never materializes beside the
    // estimates): MAE in watts and mean relative error vs mean power.
    double abs_err_sum = 0.0;
    double truth_sum = 0.0;
    std::size_t err_rows = 0;
    const auto t1 = std::chrono::steady_clock::now();
    const runtime::PredictorStats stats = predictor.predictStream(
        reader, [&](std::size_t index, double estimate) {
          if (index >= pair.power.length()) return;
          abs_err_sum += std::fabs(estimate - pair.power.at(index));
          truth_sum += pair.power.at(index);
          ++err_rows;
        });
    const double stream_s = seconds(t1);
    const double mae = err_rows > 0 ? abs_err_sum / err_rows : 0.0;
    const double mre_pct =
        truth_sum > 0.0 ? 100.0 * abs_err_sum / truth_sum : 0.0;

    obs::Registry& reg = obs::metrics();
    reg.gauge("bench.states").set(static_cast<double>(model.psm.stateCount()));
    reg.gauge("bench.model_bytes")
        .set(static_cast<double>(fileBytes(model_path)));
    reg.gauge("bench.cold_load_ms").set(1e3 * load_s);
    reg.gauge("bench.stream_seconds").set(stream_s);
    reg.gauge("bench.rows_per_second")
        .set(stream_s > 0.0 ? static_cast<double>(stats.rows) / stream_s
                            : 0.0);
    reg.gauge("bench.power_mae_watts").set(mae);
    reg.gauge("bench.power_mre_percent").set(mre_pct);

    std::ostringstream metrics_json;
    reg.writeJson(metrics_json);
    std::string mj = metrics_json.str();
    while (!mj.empty() && (mj.back() == '\n' || mj.back() == ' ')) {
      mj.pop_back();
    }
    std::printf("%s  {\"ip\": \"%s\", \"metrics\": %s}",
                first ? "" : ",\n", ip::ipName(kind).c_str(),
                indented(mj, "  ").c_str());
    first = false;
  }
  std::printf("\n]\n");
  obs::flushOutputs();
  return 0;
}
