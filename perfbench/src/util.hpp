#pragma once
// Shared plumbing of the psmgen benchmark: the workload catalogue and the
// on-disk layout of its inputs, seed derivation, FNV-1a digests, the
// key/value reference file written at set-up, clocks, summary statistics
// and process resource usage.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ip/ip_factory.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Workload { TrainLong, PredictCsv };

bool parseWorkload(const std::string& name, Workload& out);
const char* workloadName(Workload w);

/// One IP's share of a workload: its training plan, the artifact trained
/// from it, and its evaluation traces, all under the run directory.
struct Job {
  psmgen::ip::IpKind ip = psmgen::ip::IpKind::Ram;
  psmgen::ip::TestsetMode train_mode = psmgen::ip::TestsetMode::Short;
  /// Training traces; seeds are derived from the workload seed.
  std::vector<psmgen::ip::TraceSpec> plan;
  std::vector<std::uint64_t> eval_seeds;
  std::size_t eval_cycles = 0;

  std::string name() const;
  std::size_t trainRows() const;
  std::string trainFunctional(const std::string& dir, std::size_t i) const;
  std::string trainPower(const std::string& dir, std::size_t i) const;
  /// Artifact trained at set-up with num_threads = 1.
  std::string model(const std::string& dir) const;
  /// Artifact written by the measured train_long jobs.
  std::string output(const std::string& dir) const;
  std::string eval(const std::string& dir, std::size_t k) const;
};

/// The jobs of a workload; the same seed gives the same jobs.
std::vector<Job> jobsFor(Workload w, std::uint64_t seed);

/// Incremental 64-bit FNV-1a.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(const void* data, std::size_t size);
  void addDouble(double v);
};
std::uint64_t fileDigest(const std::string& path);
std::string hex64(std::uint64_t v);

/// Flat key/value file ("key value" per line) holding the set-up's
/// reference digests and counters.
using Reference = std::map<std::string, std::string>;
void writeReference(const std::string& path, const Reference& ref);
Reference readReference(const std::string& path);
/// Throws std::runtime_error when `key` is absent.
const std::string& lookup(const Reference& ref, const std::string& key);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);

/// User + system CPU seconds of this process so far.
double cpuSeconds();
/// Peak resident set of this process, in MB.
double peakRssMb();
/// CPUs this process may run on (what `nproc` prints).
unsigned nprocs();

/// Pins the calling thread to the CPU, among those the process may use,
/// that runs a short calibration loop fastest. On shared hosts each vCPU
/// slows down on its own, by up to 2x for seconds to minutes at a time;
/// single-threaded stages measured on the fastest one repeat from run to
/// run.
void pinToFastestCpu();
/// Lets the calling thread run on every CPU again (threads it creates
/// inherit its affinity).
void unpinCpu();

}  // namespace perfbench
