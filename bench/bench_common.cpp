#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>

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

std::size_t cyclesArg(int argc, char** argv, std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--cycles") == 0) {
      const long v = std::atol(argv[i + 1]);
      if (v > 0) return static_cast<std::size_t>(v);
    }
  }
  return fallback;
}

unsigned threadsArg(int argc, char** argv, unsigned fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      const long v = std::atol(argv[i + 1]);
      if (v >= 0) return static_cast<unsigned>(v);
    }
  }
  return fallback;
}

obs::Options obsArgs(int argc, char** argv, bool force_metrics) {
  obs::Options opts;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--log-level") == 0) {
      if (const auto parsed = obs::parseLogLevel(argv[i + 1])) {
        opts.log_level = *parsed;
      }
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
  double hz = 97.0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--profile-out") == 0) {
      out_ = argv[i + 1];
    } else if (std::strcmp(argv[i], "--profile-hz") == 0) {
      const double v = std::atof(argv[i + 1]);
      if (v >= 1.0 && v <= 1000.0) hz = v;
    }
  }
  if (out_.empty()) return;
  obs::ProfilerConfig config;
  config.hz = hz;
  active_ = obs::profiler().start(config);
}

bool ProfileScope::finish() {
  if (!active_) return true;
  active_ = false;
  return obs::writeProfile(out_, obs::profiler().stop());
}

ProfileScope::~ProfileScope() { finish(); }

}  // namespace psmgen::bench
