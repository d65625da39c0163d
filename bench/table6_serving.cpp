// Serving load benchmark for the concurrent prediction service (no
// analogue in the paper's tables, hence "Table VI" — the paper never
// serves its PSMs; this measures the multi-client TCP server the
// train-once / serve-many split enables).
//
// One RAM PSM is trained and loaded the way `psmgen serve` would load
// it; a PredictionServer binds an ephemeral loopback port; N client
// threads (--sessions, default 64) each open a session, stream the same
// evaluation trace in framed batches, and compare every returned
// estimate byte-for-byte against the bare OnlinePredictor's output —
// any mismatch or frame loss counts as corruption, and the gate demands
// exactly zero. Measured: per-frame round-trip latency (p50/p99 across
// all sessions) and aggregate serving throughput in rows/second.
//
// stdout is the same JSON shape as table4: [{"ip": "RAM", "metrics":
// {...}}] with the load results in bench.serve.* gauges, pinned by
// scripts/load_gate.py against BENCH_table6.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "bench_common.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "runtime/online_predictor.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/client.hpp"
#include "serve/debug_http.hpp"
#include "serve/server.hpp"

namespace {

std::size_t sizeArg(int argc, char** argv, const char* flag,
                    std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      const long v = std::atol(argv[i + 1]);
      if (v > 0) return static_cast<std::size_t>(v);
    }
  }
  return fallback;
}

/// Like sizeArg but 0 is a meaningful value (--flight-events 0 disables).
std::size_t sizeArgAllowZero(int argc, char** argv, const char* flag,
                             std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      const long v = std::atol(argv[i + 1]);
      if (v >= 0) return static_cast<std::size_t>(v);
    }
  }
  return fallback;
}

const char* stringArg(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::string indented(const std::string& json, const std::string& pad) {
  std::string out;
  out.reserve(json.size());
  for (const char c : json) {
    out.push_back(c);
    if (c == '\n') out += pad;
  }
  return out;
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psmgen;
  const std::size_t sessions = sizeArg(argc, argv, "--sessions", 64);
  const std::size_t cycles = bench::cyclesArg(argc, argv, 3000);
  const std::size_t batch = sizeArg(argc, argv, "--batch", 256);
  // --flight-events 0 measures the recorder-off baseline for the
  // overhead check in scripts/load_gate.py; the default matches serve's.
  const std::size_t flight_events =
      sizeArgAllowZero(argc, argv, "--flight-events", 1024);
  // Per-session row rate cap; 0 = unthrottled. CI's mid-load scrape run
  // uses this to stretch the load into a window wide enough to observe.
  const std::size_t rate = sizeArgAllowZero(argc, argv, "--rate", 0);
  const char* flight_dump_dir = stringArg(argc, argv, "--flight-dump-dir");
  const char* http_port_file = stringArg(argc, argv, "--http-port-file");
  bench::obsArgs(argc, argv, /*force_metrics=*/true);
  bench::ProfileScope profile(argc, argv);
  obs::flightRecorder().configure(flight_events);
  obs::flightRecorder().setEnabled(flight_events > 0);

  // Train once, then round-trip through the artifact format — sessions
  // must serve exactly what `psmgen serve` would serve from disk.
  const bench::FlowRun run = bench::trainFlow(
      ip::IpKind::Ram, ip::TestsetMode::Short, ip::shortTSPlan(ip::IpKind::Ram));
  const std::string model_path = "/tmp/psmgen_bench_serve_ram.psm";
  serialize::savePsmModel(model_path, run.flow->psm(), run.flow->domain());
  const serialize::PsmModel model = serialize::loadPsmModel(model_path);

  auto device = ip::makeDevice(ip::IpKind::Ram);
  power::GateLevelEstimator estimator(*device,
                                      ip::powerConfig(ip::IpKind::Ram));
  auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 0x715EED);
  const trace::FunctionalTrace eval = estimator.run(*tb, cycles).functional;
  std::vector<std::vector<common::BitVector>> rows;
  rows.reserve(eval.length());
  for (std::size_t i = 0; i < eval.length(); ++i) rows.push_back(eval.step(i));
  runtime::OnlinePredictor reference(model);
  const std::vector<double> expected = reference.predictTrace(eval);

  serve::ServerConfig config;
  config.port = 0;
  config.max_sessions = sessions + 8;
  config.model_id = model_path;
  config.rows_per_second = static_cast<double>(rate);
  serve::PredictionServer server(model, config);
  if (!server.listen()) return 1;
  server.start();

  // Optional live-introspection endpoint: CI scrapes /debug/sessions
  // mid-load to check the table reflects the running sessions.
  obs::HttpServer http;
  if (http_port_file != nullptr) {
    http.handle("/metrics", [](const obs::HttpServer::Request& request) {
      obs::PrometheusOptions options;
      options.openmetrics = obs::acceptsOpenMetrics(request.header("accept"));
      return obs::HttpServer::Response{
          200,
          options.openmetrics ? obs::kOpenMetricsContentType
                              : obs::kPrometheusContentType,
          obs::renderPrometheus(obs::metrics(), options)};
    });
    serve::registerDebugRoutes(http, server,
                               "{\"name\": \"table6_serving\"}\n");
    if (!http.listen(0)) return 1;
    http.start();
    std::ofstream port_file(http_port_file);
    port_file << http.port() << '\n';
    if (!port_file) return 1;
  }

  std::atomic<std::uint64_t> rows_done{0};
  std::atomic<std::uint64_t> corrupted_frames{0};
  std::atomic<std::uint64_t> errors{0};
  std::mutex latencies_mutex;
  std::vector<double> latencies_ms;  // merged per-frame round trips

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    clients.emplace_back([&] {
      std::vector<double> local_ms;
      try {
        serve::Client client;
        if (!client.connect(server.port())) {
          errors.fetch_add(1);
          return;
        }
        client.hello(model_path);
        std::size_t cursor = 0;  // next expected estimate index
        for (std::size_t off = 0; off < rows.size(); off += batch) {
          const std::size_t n = std::min(batch, rows.size() - off);
          const std::vector<std::vector<common::BitVector>> chunk(
              rows.begin() + static_cast<std::ptrdiff_t>(off),
              rows.begin() + static_cast<std::ptrdiff_t>(off + n));
          const auto f0 = std::chrono::steady_clock::now();
          const std::vector<serve::EstRow> est = client.predict(chunk);
          local_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - f0)
                                 .count());
          bool exact = est.size() == n;
          for (std::size_t i = 0; exact && i < est.size(); ++i) {
            exact = est[i].estimate == expected[cursor + i];
          }
          if (!exact) corrupted_frames.fetch_add(1);
          cursor += n;
          rows_done.fetch_add(n);
        }
        const serve::FinSummary summary = client.finish();
        if (summary.rows != rows.size()) corrupted_frames.fetch_add(1);
      } catch (const std::exception&) {
        errors.fetch_add(1);
      }
      std::lock_guard<std::mutex> lock(latencies_mutex);
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                          local_ms.end());
    });
  }
  for (auto& t : clients) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.stop();
  http.stop();

  // A full-recorder dump of the run, so a failed gate uploads the event
  // history of the load that missed it.
  if (flight_dump_dir != nullptr && flight_events > 0) {
    obs::flightRecorder().dump(
        std::string(flight_dump_dir) + "/psmgen-flight-bench.json", "bench");
  }

  obs::Registry& reg = obs::metrics();
  reg.gauge("bench.serve.sessions").set(static_cast<double>(sessions));
  reg.gauge("bench.serve.rows_total")
      .set(static_cast<double>(rows_done.load()));
  reg.gauge("bench.serve.rows_per_second")
      .set(wall_s > 0.0 ? static_cast<double>(rows_done.load()) / wall_s
                        : 0.0);
  reg.gauge("bench.serve.wall_seconds").set(wall_s);
  reg.gauge("bench.serve.frame_p50_ms").set(percentile(latencies_ms, 0.50));
  reg.gauge("bench.serve.frame_p99_ms").set(percentile(latencies_ms, 0.99));
  reg.gauge("bench.serve.corrupted_frames")
      .set(static_cast<double>(corrupted_frames.load()));
  reg.gauge("bench.serve.errors").set(static_cast<double>(errors.load()));
  reg.gauge("bench.serve.flight_events_capacity")
      .set(static_cast<double>(flight_events));
  reg.gauge("bench.serve.flight_events_recorded")
      .set(static_cast<double>(obs::flightRecorder().lastEventId()));

  std::ostringstream metrics_json;
  reg.writeJson(metrics_json);
  std::string mj = metrics_json.str();
  while (!mj.empty() && (mj.back() == '\n' || mj.back() == ' ')) mj.pop_back();
  std::printf("[\n  {\"ip\": \"RAM\", \"metrics\": %s}\n]\n",
              indented(mj, "  ").c_str());
  obs::flushOutputs();
  return 0;
}
