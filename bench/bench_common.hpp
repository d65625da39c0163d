#pragma once
// Shared support for the psmgen benchmark harness.
//
// Each bench binary reproduces one table of the paper's evaluation
// (Sec. VI). The harness prints our measured values next to the values
// reported in the paper; absolute numbers differ (our gate-level power
// estimator is a surrogate for PrimeTime PX and our machines differ) but
// the qualitative shape must hold — see EXPERIMENTS.md.

#include <cstddef>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "obs/obs.hpp"
#include "power/gate_estimator.hpp"

namespace psmgen::bench {

/// One characterization run: flow trained on a testset, with timings.
struct FlowRun {
  std::unique_ptr<core::CharacterizationFlow> flow;
  core::BuildReport report;
  double px_seconds = 0.0;      ///< reference power-trace generation time
  std::size_t total_cycles = 0;
};

/// Trains a flow on the given testset plan (reference power traces come
/// from the gate-level surrogate).
FlowRun trainFlow(ip::IpKind kind, ip::TestsetMode mode,
                  const std::vector<ip::TraceSpec>& plan,
                  const core::FlowConfig& config = {});

/// Self-evaluation MRE: simulates the PSMs on every training trace and
/// compares against its reference power (the paper's Table II metric).
double trainingMre(const core::CharacterizationFlow& flow);

/// Evaluation of PSMs against an independently generated testset: the
/// simulation's prediction counts plus the power MRE.
struct EvalResult : core::PredictionCounts {
  double mre = 0.0;
};

EvalResult evaluateOn(const core::CharacterizationFlow& flow, ip::IpKind kind,
                      ip::TestsetMode mode, std::size_t cycles,
                      std::uint64_t seed);

/// "✓" where a shape-check claim holds on a bench's own numbers, "✗"
/// where it does not.
inline const char* mark(bool holds) { return holds ? "✓" : "✗"; }

/// Total cycles of a testset plan.
std::size_t planCycles(const std::vector<ip::TraceSpec>& plan);

/// Reads the value after `flag` (e.g. "--cycles") in argv as a whole
/// base-10 integer in [min, max]; returns fallback if the flag is absent.
/// A malformed or out-of-range value, or a flag without one, is a usage
/// error, as on the CLI: logs bench.bad_flag naming the flag and `why`,
/// and exits 2.
long long integerArg(int argc, char** argv, const char* flag, long long min,
                     long long max, long long fallback, const char* why);

/// integerArg for "--cycles N", N >= 1.
std::size_t cyclesArg(int argc, char** argv, std::size_t fallback);

/// integerArg for "--threads N", N in [0, 1024] as on the CLI (0 = all
/// hardware threads, 1 = sequential).
unsigned threadsArg(int argc, char** argv, unsigned fallback);

/// Parses the shared observability flags (--log-level LVL,
/// --metrics-out F, --trace-out F) and configures the process-global obs
/// layer, so every bench binary exposes the same surface as the CLI; an
/// unknown level exits 2, as integerArg does.
/// `force_metrics` enables the registry even without --metrics-out, for
/// benches whose stdout JSON embeds registry dumps (table4). Returns the
/// applied options; call obs::flushOutputs() before exiting.
obs::Options obsArgs(int argc, char** argv, bool force_metrics = false);

/// Whole-run CPU profiling for a bench binary: parses --profile-out F /
/// --profile-hz N (same contract as the CLI flags: a rate outside
/// [1, 1000] exits 2, as integerArg does) and, when a path was
/// given, arms the sampling profiler for the scope's lifetime; the
/// destructor stops the capture and writes the psmgen.profile.v1 JSON
/// atomically. Declare one at the top of main(), after obsArgs():
///
///   bench::ProfileScope profile(argc, argv);
///
/// A scope without --profile-out is a no-op.
class ProfileScope {
 public:
  ProfileScope(int argc, char** argv);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  bool active() const { return active_; }

  /// Stops the capture and writes the dump now (idempotent; the
  /// destructor then does nothing). Call before measuring teardown-free
  /// throughput when the scope must not cover process exit.
  bool finish();

 private:
  std::string out_;
  bool active_ = false;
};

}  // namespace psmgen::bench
