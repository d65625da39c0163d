#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "common/strings.hpp"
#include "obs/profiler.hpp"

namespace psmgen::bench {

FlowRun trainFlow(ip::IpKind kind, ip::TestsetMode mode,
                  const std::vector<ip::TraceSpec>& plan,
                  const core::FlowConfig& config) {
  FlowRun run;
  run.flow = std::make_unique<core::CharacterizationFlow>(config);
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
  const auto t0 = std::chrono::steady_clock::now();
  for (const ip::TraceSpec& spec : plan) {
    auto tb = ip::makeTestbench(kind, mode, spec.seed);
    auto pair = estimator.run(*tb, spec.cycles);
    run.total_cycles += spec.cycles;
    run.flow->addTrainingTrace(std::move(pair.functional),
                               std::move(pair.power));
  }
  run.px_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  run.report = run.flow->build();
  return run;
}

double trainingMre(const core::CharacterizationFlow& flow) {
  double weighted = 0.0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < flow.trainingFunctional().size(); ++i) {
    const auto& f = flow.trainingFunctional()[i];
    weighted += flow.evaluateMre(f, flow.trainingPower()[i]) *
                static_cast<double>(f.length());
    total += f.length();
  }
  return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

EvalResult evaluateOn(const core::CharacterizationFlow& flow, ip::IpKind kind,
                      ip::TestsetMode mode, std::size_t cycles,
                      std::uint64_t seed) {
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
  auto tb = ip::makeTestbench(kind, mode, seed);
  auto pair = estimator.run(*tb, cycles);
  const core::SimResult sim = flow.estimate(pair.functional);
  return {sim, trace::meanRelativeError(sim.estimate, pair.power.samples())};
}

std::size_t planCycles(const std::vector<ip::TraceSpec>& plan) {
  std::size_t total = 0;
  for (const auto& spec : plan) total += spec.cycles;
  return total;
}

namespace {

[[noreturn]] void badFlag(const char* flag, const char* value,
                          const char* why) {
  obs::error("bench.bad_flag",
             {{"flag", flag}, {"value", value}, {"why", why}});
  std::exit(2);
}

/// The value after the first `flag` in argv, or null if the flag is absent.
const char* flagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 == argc) badFlag(flag, "", "needs a value");
    return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

long long integerArg(int argc, char** argv, const char* flag, long long min,
                     long long max, long long fallback, const char* why) {
  const char* value = flagValue(argc, argv, flag);
  if (value == nullptr) return fallback;
  const std::optional<long long> parsed = common::parseInteger(value, min, max);
  if (!parsed) badFlag(flag, value, why);
  return *parsed;
}

std::size_t cyclesArg(int argc, char** argv, std::size_t fallback) {
  return static_cast<std::size_t>(
      integerArg(argc, argv, "--cycles", 1,
                 std::numeric_limits<long long>::max(),
                 static_cast<long long>(fallback),
                 "expects a positive cycle count"));
}

unsigned threadsArg(int argc, char** argv, unsigned fallback) {
  return static_cast<unsigned>(
      integerArg(argc, argv, "--threads", 0, 1024, fallback,
                 "expects a thread count in [0, 1024]"));
}

obs::Options obsArgs(int argc, char** argv, bool force_metrics) {
  obs::Options opts;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--log-level") == 0) {
      const auto parsed = obs::parseLogLevel(argv[i + 1]);
      if (!parsed) {
        badFlag("--log-level", argv[i + 1],
                "expects trace|debug|info|warn|error|off");
      }
      opts.log_level = *parsed;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      opts.metrics_out = argv[i + 1];
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      opts.trace_out = argv[i + 1];
    }
  }
  if (force_metrics) opts.metrics = true;
  obs::configure(opts);
  return opts;
}

ProfileScope::ProfileScope(int argc, char** argv) {
  obs::ProfilerConfig config;
  if (const char* hz = flagValue(argc, argv, "--profile-hz")) {
    const std::optional<double> parsed = common::parseReal(hz, 1.0, 1000.0);
    if (!parsed) badFlag("--profile-hz", hz, "expects a rate in [1, 1000]");
    config.hz = *parsed;
  }
  if (const char* out = flagValue(argc, argv, "--profile-out")) out_ = out;
  if (out_.empty()) return;
  active_ = obs::profiler().start(config);
}

bool ProfileScope::finish() {
  if (!active_) return true;
  active_ = false;
  return obs::writeProfile(out_, obs::profiler().stop());
}

ProfileScope::~ProfileScope() { finish(); }

}  // namespace psmgen::bench
