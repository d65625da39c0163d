// psmgen — command-line front end for the characterization flow.
//
// Usage:
//   psmgen train    --func F.csv --power F.pw [...] --out model.psm [--lint]
//   psmgen predict  --psm model.psm --eval E.csv [--ref E.pw]
//   psmgen lint     --psm model.psm [--json] [--werror] [--suppress ID]
//   psmgen generate --func F.csv --power F.pw [...]
//                   [--dot out.dot] [--systemc out.cpp] [--plain]
//   psmgen estimate --func train.csv --power train.pw [...]
//                   --eval eval.csv [--ref eval.pw]
//   psmgen demo <ram|multsum|aes|camellia>
//
// `train` runs the characterization once and writes a versioned PSM model
// artifact; `predict` loads the artifact and streams an evaluation trace
// through the online predictor in bounded memory — together they split
// the fused `estimate` into a train-once / serve-many workflow with
// identical per-instant estimates. `lint` statically analyzes a model
// artifact (or, via `train --lint`, the freshly mined model in-process)
// against the semantic check registry in src/analysis and exits 0/1/2 so
// CI can gate on it. `generate` and `estimate` keep the single-shot
// behaviour; `demo` characterizes one of the paper's benchmark IPs end
// to end.
//
// Output contract: stdout carries pure results only (the instant,power_w
// CSV of predict/estimate) and is byte-identical across --log-level /
// --metrics-out / --trace-out settings; every diagnostic goes through
// the structured logger on stderr (obs/log.hpp).

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/build_info.hpp"
#include "common/strings.hpp"
#include "core/codegen.hpp"
#include "core/dot_export.hpp"
#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/quality_monitor.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/debug_http.hpp"
#include "serve/server.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace psmgen;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  psmgen train    --func F.csv --power F.pw [...] --out model.psm "
      "[--dot out.dot] [--systemc out.cpp] [--plain] [--threads N]\n"
      "  psmgen predict  --psm model.psm --eval E.csv [--ref E.pw]\n"
      "  psmgen lint     --psm model.psm [--json] [--werror] "
      "[--suppress ID[,ID...]] [--epsilon E]\n"
      "  psmgen serve    --psm model.psm [--serve-port N] "
      "[--serve-port-file F] [--max-sessions N]\n"
      "                  [--rate ROWS_PER_S] [--idle-timeout-ms N] "
      "[--port N] [--port-file F]\n"
      "                  [--window N] [--drift-wsp PCT] [--drift-z Z]\n"
      "  psmgen generate --func F.csv --power F.pw [...] "
      "[--dot out.dot] [--systemc out.cpp] [--plain] [--threads N]\n"
      "  psmgen estimate --func F.csv --power F.pw [...] "
      "--eval E.csv [--ref E.pw] [--threads N]\n"
      "  psmgen demo <ram|multsum|aes|camellia> [--threads N]\n"
      "  psmgen --version\n"
      "\n"
      "lint (static analysis of a model artifact; exit 0 = clean, "
      "1 = findings gated,\n2 = usage error; train also accepts --lint "
      "to vet the freshly mined model in-process):\n"
      "  --json             machine-readable psmgen.lint.v1 report on "
      "stdout instead of text\n"
      "  --werror           warnings also trip the gate (exit 1)\n"
      "  --suppress IDs     drop findings by check id "
      "(repeatable or comma-separated)\n"
      "  --epsilon E        tolerance for probability-sum checks "
      "(default 1e-9)\n"
      "\n"
      "  --threads N        characterization threads, 0..1024 "
      "(0 = all hardware threads [default], 1 = sequential)\n"
      "\n"
      "serve (multi-client TCP prediction server speaking the "
      "psmgen.serve.v1 framed protocol\non 127.0.0.1, one predictor "
      "session per connection, graceful drain on SIGINT/SIGTERM;\n"
      "GET /metrics /healthz /readyz /buildinfo /debug/* on a second "
      "port):\n"
      "  --serve-port N     prediction protocol port "
      "(default 9465; 0 = ephemeral)\n"
      "  --serve-port-file F  write the bound prediction port to F\n"
      "  --max-sessions N   live-session cap; over-cap connects get "
      "Error{busy} (default 256)\n"
      "  --rate R           per-session row rate limit in rows/s "
      "(0 = unlimited [default])\n"
      "  --idle-timeout-ms N  drop sessions idle this long "
      "(default 30000)\n"
      "  --port N           HTTP port (default 9464; 0 = ephemeral)\n"
      "  --port-file F      write the bound port to F (for --port 0)\n"
      "  --window N         drift-detection sliding window rows "
      "(default 2048)\n"
      "  --drift-wsp PCT    each session's windowed-WSP %% drift "
      "threshold (default 35; degraded at half)\n"
      "  --drift-z Z        each session's power-residual EWMA z drift "
      "threshold (default 6;\n"
      "                     degraded at half); a session's drift status "
      "shows in /debug/sessions\n"
      "                     and in its FinAck\n"
      "  --flight-events N  flight-recorder ring capacity per thread "
      "(default 1024; 0 disables)\n"
      "  --flight-dump-dir D  write automatic flight dumps (protocol "
      "error, drift, fatal signal)\n"
      "                  into D as psmgen-flight-<reason>-<seq>.json "
      "(default: no automatic dumps)\n"
      "\n"
      "observability (stderr/file only; stdout stays pure results):\n"
      "  --log-level LVL    trace|debug|info|warn|error|off "
      "(default info)\n"
      "  --log-json         one JSON object per log line instead of "
      "key=value\n"
      "  --quiet            only errors on stderr (same as "
      "--log-level error)\n"
      "  --metrics-out F    write the metrics registry as JSON to F\n"
      "  --trace-out F      write Chrome trace_event JSON to F "
      "(chrome://tracing, Perfetto)\n"
      "  --profile-out F    sample the whole run with the SIGPROF CPU\n"
      "                     profiler and write psmgen.profile.v1 JSON "
      "to F\n"
      "                     (render: scripts/flamegraph.py)\n"
      "  --profile-hz N     profiler sampling rate in Hz, 1..1000 "
      "(default 97)\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> func;
  std::vector<std::string> power;
  std::string eval;
  std::string ref;
  std::string dot;
  std::string systemc;
  std::string out;
  std::string psm;
  bool plain = false;
  unsigned threads = 0;
  // serve endpoint surface.
  int port = 9464;
  std::string port_file;
  int serve_port = 9465;
  std::string serve_port_file;
  std::size_t max_sessions = 256;
  double rate = 0.0;
  int idle_timeout_ms = 30000;
  std::size_t window = 2048;
  double drift_wsp = 35.0;
  double drift_z = 6.0;
  /// Flight-recorder ring capacity per thread; 0 disables the recorder.
  std::size_t flight_events = 1024;
  /// Directory for automatic flight dumps (protocol error, drift, fatal
  /// signal); empty disables automatic dumps (on-demand routes still work).
  std::string flight_dump_dir;
  // lint surface (`psmgen lint` and `train --lint`).
  bool lint_json = false;
  bool lint_werror = false;
  bool lint_after_train = false;
  double lint_epsilon = 1e-9;
  std::vector<std::string> lint_suppress;
  // Observability surface (satellite of the obs layer): never changes
  // what lands on stdout, only stderr verbosity and the two dump files.
  std::string log_level;
  std::string metrics_out;
  std::string trace_out;
  /// Whole-run CPU profile dump path; empty disables sampling.
  std::string profile_out;
  double profile_hz = 97.0;
  bool log_json = false;
  bool quiet = false;
};

/// Parses everything after the subcommand. Exactly one pass: every flag
/// is handled here, and an unknown flag is a hard error (exit non-zero
/// via usage()), never silently ignored. A numeric flag must parse as a
/// whole and fall in its range, or it is rejected with cli.bad_flag.
bool parse(int argc, char** argv, Args& args) {
  constexpr long long kNoMax = std::numeric_limits<long long>::max();
  constexpr double kFiniteMax = std::numeric_limits<double>::max();
  constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string& into) {
      if (i + 1 >= argc) {
        obs::error("cli.flag_needs_value", {{"flag", flag}});
        return false;
      }
      into = argv[++i];
      return true;
    };
    auto checked = [&](const std::string& v, const auto& parsed,
                       const char* why) {
      if (!parsed) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"value", v}, {"why", why}});
      }
      return parsed.has_value();
    };
    auto integer = [&](auto& into, long long min, long long max,
                       const char* why) {
      std::string v;
      if (!value(v)) return false;
      const auto parsed = common::parseInteger(v, min, max);
      if (!checked(v, parsed, why)) return false;
      into = static_cast<std::remove_reference_t<decltype(into)>>(*parsed);
      return true;
    };
    auto real = [&](double& into, double min, double max, const char* why) {
      std::string v;
      if (!value(v)) return false;
      const auto parsed = common::parseReal(v, min, max);
      if (!checked(v, parsed, why)) return false;
      into = *parsed;
      return true;
    };
    bool ok = true;
    if (flag == "--func") {
      ok = value(args.func.emplace_back());
    } else if (flag == "--power") {
      ok = value(args.power.emplace_back());
    } else if (flag == "--eval") {
      ok = value(args.eval);
    } else if (flag == "--ref") {
      ok = value(args.ref);
    } else if (flag == "--dot") {
      ok = value(args.dot);
    } else if (flag == "--systemc") {
      ok = value(args.systemc);
    } else if (flag == "--out") {
      ok = value(args.out);
    } else if (flag == "--psm") {
      ok = value(args.psm);
    } else if (flag == "--plain") {
      args.plain = true;
    } else if (flag == "--threads") {
      ok = integer(args.threads, 0, 1024,
                   "expects a thread count in [0, 1024]");
    } else if (flag == "--port") {
      ok = integer(args.port, 0, 65535, "expects a port in [0, 65535]");
    } else if (flag == "--port-file") {
      ok = value(args.port_file);
    } else if (flag == "--serve-port") {
      ok = integer(args.serve_port, 0, 65535,
                   "expects a port in [0, 65535]");
    } else if (flag == "--serve-port-file") {
      ok = value(args.serve_port_file);
    } else if (flag == "--max-sessions") {
      ok = integer(args.max_sessions, 1, kNoMax, "expects a positive count");
    } else if (flag == "--rate") {
      ok = real(args.rate, 0.0, kFiniteMax, "expects rows/s >= 0");
    } else if (flag == "--idle-timeout-ms") {
      ok = integer(args.idle_timeout_ms, 1, std::numeric_limits<int>::max(),
                   "expects milliseconds in [1, 2147483647]");
    } else if (flag == "--window") {
      ok = integer(args.window, 1, kNoMax, "expects a positive row count");
    } else if (flag == "--drift-wsp") {
      ok = real(args.drift_wsp, kPositive, kFiniteMax,
                "expects a positive percentage");
    } else if (flag == "--drift-z") {
      ok = real(args.drift_z, kPositive, kFiniteMax,
                "expects a positive z-score");
    } else if (flag == "--flight-events") {
      ok = integer(args.flight_events, 0, kNoMax,
                   "expects an event count >= 0 (0 disables)");
    } else if (flag == "--flight-dump-dir") {
      ok = value(args.flight_dump_dir);
    } else if (flag == "--json") {
      args.lint_json = true;
    } else if (flag == "--werror") {
      args.lint_werror = true;
    } else if (flag == "--lint") {
      args.lint_after_train = true;
    } else if (flag == "--epsilon") {
      ok = real(args.lint_epsilon, 0.0, kFiniteMax,
                "expects a tolerance >= 0");
    } else if (flag == "--suppress") {
      std::string v;
      if (!value(v)) return false;
      // Accept both repeated flags and one comma-separated list.
      for (std::string& id : common::split(v, ',')) {
        if (!id.empty()) args.lint_suppress.push_back(std::move(id));
      }
    } else if (flag == "--log-level") {
      ok = value(args.log_level);
    } else if (flag == "--metrics-out") {
      ok = value(args.metrics_out);
    } else if (flag == "--trace-out") {
      ok = value(args.trace_out);
    } else if (flag == "--profile-out") {
      ok = value(args.profile_out);
    } else if (flag == "--profile-hz") {
      ok = real(args.profile_hz, 1.0, 1000.0, "expects a rate in [1, 1000]");
    } else if (flag == "--log-json") {
      args.log_json = true;
    } else if (flag == "--quiet") {
      args.quiet = true;
    } else if (!flag.empty() && flag.front() == '-') {
      obs::error("cli.unknown_flag", {{"flag", flag}});
      return false;
    } else {
      args.positional.push_back(flag);
    }
    if (!ok) return false;
  }
  return true;
}

/// Builds the obs configuration from the CLI flags. The CLI default is
/// info (the historical summaries keep appearing); --quiet drops to
/// error; --log-level wins over both. Returns false on a bad level name.
bool configureObservability(const Args& args) {
  obs::Options opts;
  opts.log_level = args.quiet ? obs::LogLevel::Error : obs::LogLevel::Info;
  if (!args.log_level.empty()) {
    const auto parsed = obs::parseLogLevel(args.log_level);
    if (!parsed) {
      obs::error("cli.bad_log_level", {{"value", args.log_level}});
      return false;
    }
    opts.log_level = *parsed;
  }
  if (args.log_json) opts.log_format = obs::Logger::Format::Json;
  opts.metrics_out = args.metrics_out;
  opts.trace_out = args.trace_out;
  obs::configure(opts);
  return true;
}

bool requireTrainingPairs(const Args& args) {
  if (args.func.empty() || args.func.size() != args.power.size()) {
    obs::error("cli.bad_training_pairs",
               {{"func", args.func.size()}, {"power", args.power.size()},
                {"why", "need at least one --func/--power pair"}});
    return false;
  }
  return true;
}

void summarize(const core::CharacterizationFlow& flow,
               const core::BuildReport& report) {
  obs::info("flow.summary",
            {{"atoms", report.atoms},
             {"propositions", report.propositions},
             {"raw_states", report.raw_states},
             {"states", report.states},
             {"transitions", report.transitions},
             {"refined", report.refined_states},
             {"seconds", report.generation_seconds}});
  if (!obs::logger().enabled(obs::LogLevel::Info)) return;
  for (const auto& s : flow.psm().states()) {
    obs::info("flow.state",
              {{"id", s.id},
               {"mu_w", s.power.mean},
               {"sigma", s.power.stddev},
               {"n", s.power.n},
               {"regression", s.regression.has_value()}});
  }
}

void writeArtifacts(const core::CharacterizationFlow& flow, const Args& args) {
  if (!args.dot.empty()) {
    std::ofstream os(args.dot);
    core::writeDot(os, flow.psm(), flow.domain());
    obs::info("cli.wrote", {{"kind", "dot"}, {"path", args.dot}});
  }
  if (!args.systemc.empty()) {
    core::CodegenOptions opt;
    opt.style = args.plain ? core::CodegenStyle::Plain
                           : core::CodegenStyle::SystemC;
    std::ofstream os(args.systemc);
    os << core::generateModel(flow.psm(), flow.domain(), opt);
    obs::info("cli.wrote", {{"kind", "systemc"}, {"path", args.systemc}});
  }
}

core::CharacterizationFlow trainFlow(const Args& args) {
  core::FlowConfig config;
  config.num_threads = args.threads;
  core::CharacterizationFlow flow(config);
  for (std::size_t i = 0; i < args.func.size(); ++i) {
    flow.addTrainingTrace(trace::loadFunctionalTrace(args.func[i]),
                          trace::loadPowerTrace(args.power[i]));
  }
  return flow;
}

int runGenerate(const Args& args, bool estimate) {
  core::CharacterizationFlow flow = trainFlow(args);
  const core::BuildReport report = flow.build();
  summarize(flow, report);
  writeArtifacts(flow, args);
  if (!estimate) return 0;

  const trace::FunctionalTrace eval = trace::loadFunctionalTrace(args.eval);
  // A reference too short to score every instant is refused before any
  // estimate is printed.
  const std::vector<double> ref =
      args.ref.empty() ? std::vector<double>{}
                       : trace::referenceSamples(
                             trace::loadPowerTrace(args.ref), eval.length());
  const core::SimResult sim = flow.estimate(eval);
  std::printf("instant,power_w\n");
  for (std::size_t t = 0; t < sim.estimate.size(); ++t) {
    std::printf("%zu,%.9e\n", t, sim.estimate[t]);
  }
  obs::info("estimate.summary",
            {{"instants", sim.estimate.size()},
             {"wsp_percent", sim.wspPercent()},
             {"unexpected", sim.unexpected_behaviours},
             {"lost", sim.lost_instants}});
  if (!args.ref.empty()) {
    obs::info("estimate.mre",
              {{"mre_percent",
                100.0 * trace::meanRelativeError(sim.estimate, ref)}});
  }
  return 0;
}

/// Builds the analyzer options from the CLI surface, rejecting check ids
/// that are not in the registry so a typo in --suppress cannot silently
/// disable nothing. Returns false on an unknown id (usage error).
bool lintOptionsFromArgs(const Args& args, analysis::LintOptions& options) {
  options.epsilon = args.lint_epsilon;
  options.werror = args.lint_werror;
  for (const std::string& id : args.lint_suppress) {
    if (!analysis::findCheck(id)) {
      obs::error("lint.unknown_check_id", {{"id", id}});
      return false;
    }
    options.suppress.push_back(id);
  }
  return true;
}

/// Shared tail of `lint` and `train --lint`: render the report on stdout
/// (text or JSON — lint reports are the command's pure result) and fold
/// the findings into the exit code.
int reportLint(const analysis::LintReport& report, const std::string& subject,
               const Args& args, const analysis::LintOptions& options) {
  const std::string rendered = args.lint_json
                                   ? analysis::renderJson(report, subject)
                                   : analysis::renderText(report, subject);
  std::fputs(rendered.c_str(), stdout);
  const int rc = analysis::gateExitCode(report, options);
  obs::info("lint.summary",
            {{"subject", subject},
             {"errors", report.errors},
             {"warnings", report.warnings},
             {"infos", report.infos},
             {"gate", rc == 0 ? "pass" : "fail"}});
  return rc;
}

int runLint(const Args& args) {
  analysis::LintOptions options;
  if (!lintOptionsFromArgs(args, options)) return usage();
  const analysis::LintReport report = analysis::lintArtifact(args.psm, options);
  return reportLint(report, args.psm, args, options);
}

int runTrain(const Args& args) {
  core::CharacterizationFlow flow = trainFlow(args);
  const core::BuildReport report = flow.build();
  summarize(flow, report);
  writeArtifacts(flow, args);
  serialize::savePsmModel(args.out, flow.psm(), flow.domain());
  obs::info("train.wrote_model",
            {{"path", args.out},
             {"states", flow.psm().stateCount()},
             {"transitions", flow.psm().transitionCount()},
             {"propositions", flow.domain().size()}});
  if (args.lint_after_train) {
    // After-train hook: vet the freshly mined model in-process (no
    // artifact round-trip) so a bad model fails the training job itself.
    analysis::LintOptions options;
    if (!lintOptionsFromArgs(args, options)) return usage();
    const analysis::LintReport lint =
        analysis::lintModel(flow.psm(), flow.domain(), options);
    return reportLint(lint, args.out, args, options);
  }
  return 0;
}

/// Loads the artifact at `path` and logs `event` with its shape. The
/// cold-load latency (artifact -> servable model) is a first-class
/// serving metric: it bounds predictor restart time.
serialize::PsmModel loadModel(const std::string& path, const char* event) {
  const auto load0 = std::chrono::steady_clock::now();
  serialize::PsmModel model = serialize::loadPsmModel(path);
  const double cold_load_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - load0)
          .count();
  obs::metrics().gauge("predict.cold_load_ms").set(cold_load_ms);
  obs::info(event, {{"path", path},
                    {"states", model.psm.stateCount()},
                    {"transitions", model.psm.transitionCount()},
                    {"propositions", model.domain.size()},
                    {"cold_load_ms", cold_load_ms}});
  return model;
}

int runPredict(const Args& args) {
  const serialize::PsmModel model = loadModel(args.psm, "predict.loaded_model");

  // Reference samples are compared online so nothing scales with the
  // evaluation trace: the estimate is printed and folded into the MRE
  // accumulator as each row leaves the streaming reader. A reference that
  // ends before the evaluation trace is refused at its first unscored row.
  std::vector<double> ref;
  if (!args.ref.empty()) {
    ref = trace::loadPowerTrace(args.ref).samples();
  }
  double mre_sum = 0.0;
  std::size_t mre_n = 0;

  // The quality monitor observes each row's verdict from the sink: the
  // estimate CSV on stdout cannot depend on it, and the windowed drift
  // gauges land in --metrics-out for free.
  runtime::StreamingTraceReader reader(args.eval);
  runtime::OnlinePredictor predictor(model);
  runtime::QualityMonitor monitor(model.psm);
  monitor.reset();  // publishes quality.status = ok before the first row
  // The header goes out with the first estimate, so that a trace refused
  // before its first row leaves stdout empty, as `estimate` does.
  const char* const header = "instant,power_w\n";
  const runtime::PredictorStats stats = predictor.predictStream(
      reader, [&](std::size_t t, double estimate) {
        if (!args.ref.empty() && t >= ref.size()) {
          throw std::invalid_argument(
              "reference power trace has " + std::to_string(ref.size()) +
              " samples, fewer than the instants of the evaluation trace");
        }
        if (t == 0) std::fputs(header, stdout);
        std::printf("%zu,%.9e\n", t, estimate);
        monitor.observe(predictor.lastRow(), estimate);
        if (!args.ref.empty() && ref[t] != 0.0) {
          mre_sum += std::abs(estimate - ref[t]) / ref[t];
          ++mre_n;
        }
      });
  if (stats.rows == 0) std::fputs(header, stdout);  // a valid empty trace
  monitor.publishOccupancy();
  obs::info("predict.summary",
            {{"instants", stats.rows},
             {"wsp_percent", stats.wspPercent()},
             {"unexpected", stats.unexpected_behaviours},
             {"lost", stats.lost_instants},
             {"resyncs", stats.resyncs},
             {"rows_per_second", stats.rowsPerSecond()},
             {"quality_status",
              runtime::driftStatusName(monitor.status())}});
  if (!args.ref.empty() && mre_n > 0) {
    obs::info("predict.mre",
              {{"mre_percent", 100.0 * mre_sum / static_cast<double>(mre_n)}});
  }
  return 0;
}

int printVersion() {
  std::printf("psmgen %s (git %s, %s, psm-format v%u)\n", common::kVersion,
              common::kGitSha, common::kBuildType, serialize::kFormatVersion);
  return 0;
}

// SIGINT/SIGTERM flip this; the serve loop polls it to begin a graceful
// drain. std::atomic<bool> is async-signal-safe when lock-free, which it
// is on every platform psmgen targets. This is the *only* state the
// shutdown handler may touch: scripts/signal_safety_gate.py walks the
// handler's transitive call graph and fails the build if anything
// async-signal-unsafe (allocation, stdio, blocking locks) ever creeps
// in, so keep handleShutdownSignal a bare atomic store.
std::atomic<bool> g_shutdown{false};

extern "C" void handleShutdownSignal(int) {
  g_shutdown.store(true, std::memory_order_relaxed);
}

/// sigaction (not signal()) and deliberately no SA_RESTART, so a
/// blocking call in the main thread wakes with EINTR instead of
/// resuming and ignoring the shutdown request.
void installServeSignalHandlers() {
  struct sigaction sa {};
  sa.sa_handler = handleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// Writes `port` to `path` with an explicit flush check. A readiness
/// script polls this file; if it can never materialise the process must
/// exit non-zero instead of serving a port nobody can discover.
bool writePortFile(const std::string& path, std::uint16_t port) {
  std::ofstream os(path);
  os << port << '\n';
  os.flush();
  if (!os) {
    obs::error("serve.port_file_failed", {{"path", path}});
    return false;
  }
  return true;
}

/// Runs the multi-client TCP prediction server speaking the
/// psmgen.serve.v1 framed protocol, one OnlinePredictor per session over
/// the shared model, with the HTTP endpoint on a second port. Runs until
/// SIGINT/SIGTERM, then drains gracefully.
int runServe(const Args& args) {
  installServeSignalHandlers();
  // /metrics is the point of serve: the registry runs enabled regardless
  // of --metrics-out.
  obs::metrics().setEnabled(true);

  // The flight recorder runs whenever serving does: per-thread rings of
  // the last --flight-events wide events, dumped automatically on
  // protocol errors, drift transitions and fatal signals when a dump
  // directory is configured.
  obs::flightRecorder().configure(args.flight_events);
  obs::flightRecorder().setEnabled(args.flight_events > 0);
  if (!args.flight_dump_dir.empty()) {
    obs::flightRecorder().setDumpDir(args.flight_dump_dir);
    obs::installFatalSignalDump();
  }
  const serialize::PsmModel model = loadModel(args.psm, "serve.loaded_model");

  serve::ServerConfig config;
  config.port = static_cast<std::uint16_t>(args.serve_port);
  config.max_sessions = args.max_sessions;
  config.rows_per_second = args.rate;
  config.idle_timeout_ms = args.idle_timeout_ms;
  config.model_id = args.psm;
  config.quality.window_rows = args.window;
  config.quality.min_rows = std::min(config.quality.min_rows, args.window);
  config.quality.wsp_drifted_percent = args.drift_wsp;
  config.quality.residual_drifted_z = args.drift_z;
  serve::PredictionServer prediction(model, config);

  obs::HttpServer server;
  const std::string model_label = args.psm;
  server.handle(
      "/metrics", [model_label](const obs::HttpServer::Request& request) {
        obs::PrometheusOptions options;
        options.const_labels = {{"model", model_label}};
        // Exemplars are OpenMetrics-only syntax, so the classic 0.0.4
        // exposition stays exemplar-free; a scraper that negotiates
        // OpenMetrics via Accept gets them (plus `# EOF`).
        options.openmetrics =
            obs::acceptsOpenMetrics(request.header("accept"));
        return obs::HttpServer::Response{
            200,
            options.openmetrics ? obs::kOpenMetricsContentType
                                : obs::kPrometheusContentType,
            obs::renderPrometheus(obs::metrics(), options)};
      });
  server.handle("/healthz", [](const obs::HttpServer::Request&) {
    return obs::HttpServer::Response{200, "text/plain; charset=utf-8",
                                     "ok\n"};
  });
  // /readyz flips to 503 as soon as the drain starts so a load balancer
  // stops routing to an instance that refuses new sessions.
  server.handle("/readyz", [&prediction](const obs::HttpServer::Request&) {
    const bool draining = prediction.draining();
    return obs::HttpServer::Response{draining ? 503 : 200,
                                     "text/plain; charset=utf-8",
                                     draining ? "draining\n" : "ok\n"};
  });
  const std::string buildinfo = serve::buildInfoJson(args.psm, model);
  server.handle("/buildinfo", [buildinfo](const obs::HttpServer::Request&) {
    return obs::HttpServer::Response{200, "application/json", buildinfo};
  });
  serve::registerDebugRoutes(server, prediction, buildinfo);
  if (!server.listen(static_cast<std::uint16_t>(args.port))) return 1;
  server.start();
  if (!prediction.listen()) return 1;
  prediction.start();
  if (!args.port_file.empty() &&
      !writePortFile(args.port_file, server.port())) {
    return 1;
  }
  if (!args.serve_port_file.empty() &&
      !writePortFile(args.serve_port_file, prediction.port())) {
    return 1;
  }
  obs::info("serve.listening",
            {{"serve_port", prediction.port()},
             {"http_port", server.port()},
             {"max_sessions", args.max_sessions},
             {"rows_per_second", args.rate},
             {"idle_timeout_ms", args.idle_timeout_ms}});

  while (!g_shutdown.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  obs::info("serve.shutdown_signal", {{"draining", true}});
  prediction.beginDrain();
  prediction.stop();
  obs::info("serve.summary",
            {{"sessions_total", prediction.totalSessions()},
             {"port", prediction.port()}});
  server.stop();
  return 0;
}

int runDemo(const std::string& name, unsigned threads) {
  ip::IpKind kind;
  if (name == "ram") {
    kind = ip::IpKind::Ram;
  } else if (name == "multsum") {
    kind = ip::IpKind::MultSum;
  } else if (name == "aes") {
    kind = ip::IpKind::Aes;
  } else if (name == "camellia") {
    kind = ip::IpKind::Camellia;
  } else {
    obs::error("cli.unknown_demo_ip", {{"name", name}});
    return usage();
  }
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
  core::FlowConfig config;
  config.num_threads = threads;
  core::CharacterizationFlow flow(config);
  for (const ip::TraceSpec& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    auto pair = estimator.run(*tb, spec.cycles);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  const core::BuildReport report = flow.build();
  summarize(flow, report);
  auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0xC11);
  auto eval = estimator.run(*tb, 20000);
  const core::SimResult sim = flow.estimate(eval.functional);
  obs::info("demo.mre",
            {{"ip", name},
             {"mre_percent",
              100.0 * trace::meanRelativeError(sim.estimate,
                                               eval.power.samples())}});
  return 0;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "demo") {
    if (args.positional.size() != 1) return usage();
    return runDemo(args.positional.front(), args.threads);
  }
  if (!args.positional.empty()) {
    obs::error("cli.unexpected_argument", {{"arg", args.positional.front()}});
    return usage();
  }
  if (cmd == "generate") {
    if (!requireTrainingPairs(args)) return usage();
    return runGenerate(args, /*estimate=*/false);
  }
  if (cmd == "estimate") {
    if (!requireTrainingPairs(args) || args.eval.empty()) return usage();
    return runGenerate(args, /*estimate=*/true);
  }
  if (cmd == "train") {
    if (!requireTrainingPairs(args) || args.out.empty()) return usage();
    return runTrain(args);
  }
  if (cmd == "predict") {
    if (args.psm.empty() || args.eval.empty()) return usage();
    return runPredict(args);
  }
  if (cmd == "lint") {
    if (args.psm.empty()) return usage();
    return runLint(args);
  }
  if (cmd == "serve") {
    if (args.psm.empty()) return usage();
    return runServe(args);
  }
  obs::error("cli.unknown_command", {{"command", cmd}});
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") return printVersion();
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (!configureObservability(args)) return usage();
  // Whole-run profile: armed around dispatch so the capture covers the
  // subcommand's real work (estimate/train/predict/serve), not flag
  // parsing; the dump is atomic tmp+rename like --metrics-out.
  const bool profiling = !args.profile_out.empty();
  if (profiling) {
    obs::ProfilerConfig config;
    config.hz = args.profile_hz;
    if (!obs::profiler().start(config)) return 1;
  }
  int rc = 0;
  try {
    rc = dispatch(cmd, args);
  } catch (const std::exception& e) {
    obs::error("cli.error", {{"what", e.what()}});
    rc = 1;
  }
  if (profiling) {
    // Dump even on failure — where a failed run burned its cycles is
    // exactly what one debugs with.
    const obs::ProfileReport report = obs::profiler().stop();
    if (!obs::writeProfile(args.profile_out, report) && rc == 0) rc = 1;
  }
  // Flush the metrics/trace dumps even on failure — a failed run's
  // partial metrics are exactly what one debugs with.
  if (!obs::flushOutputs() && rc == 0) rc = 1;
  return rc;
}
