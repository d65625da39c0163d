#include "util.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

// Input sizes. Every timing is a best-of over the passes of a run (see
// PassStats in measure.cpp), so one pass over the four IPs is kept short
// enough for a run to hold a few dozen. train_long follows the paper's
// long-TS plans (8 traces per IP), scaled from 500000 to 50000 instants.
constexpr std::size_t kTrainLongCycles = 50000;
// predict_csv: one eval trace per IP, served by a short-TS model.
constexpr std::size_t kPredictEvalCycles = 40000;

/// splitmix64 over (seed, a, b): independent testbench seeds per trace.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^
                    (b * 0xD1B54A32D192ED03ull) ^ 0x5EEDull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<psmgen::ip::TraceSpec> reseeded(
    std::vector<psmgen::ip::TraceSpec> plan, std::uint64_t seed,
    psmgen::ip::IpKind ip) {
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].seed = deriveSeed(seed, static_cast<std::uint64_t>(ip), i);
  }
  return plan;
}

Job makeJob(psmgen::ip::IpKind ip, psmgen::ip::TestsetMode mode,
            std::uint64_t seed, std::size_t evals, std::size_t eval_cycles) {
  Job job;
  job.ip = ip;
  job.train_mode = mode;
  job.plan = reseeded(mode == psmgen::ip::TestsetMode::Long
                          ? psmgen::ip::longTSPlan(ip, kTrainLongCycles)
                          : psmgen::ip::shortTSPlan(ip),
                      seed, ip);
  for (std::size_t k = 0; k < evals; ++k) {
    job.eval_seeds.push_back(
        deriveSeed(seed, 0x100 + static_cast<std::uint64_t>(ip), k));
  }
  job.eval_cycles = eval_cycles;
  return job;
}

}  // namespace

bool parseWorkload(const std::string& name, Workload& out) {
  for (const Workload w : {Workload::TrainLong, Workload::PredictCsv}) {
    if (name == workloadName(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::TrainLong: return "train_long";
    case Workload::PredictCsv: return "predict_csv";
  }
  return "?";
}

std::string Job::name() const { return psmgen::ip::ipName(ip); }

std::size_t Job::trainRows() const {
  std::size_t rows = 0;
  for (const auto& spec : plan) rows += spec.cycles;
  return rows;
}

std::string Job::trainFunctional(const std::string& dir, std::size_t i) const {
  return dir + "/" + name() + "/train" + std::to_string(i) + ".csv";
}
std::string Job::trainPower(const std::string& dir, std::size_t i) const {
  return dir + "/" + name() + "/train" + std::to_string(i) + ".pw";
}
std::string Job::model(const std::string& dir) const {
  return dir + "/" + name() + "/model.psm";
}
std::string Job::output(const std::string& dir) const {
  return dir + "/" + name() + "/trained.psm";
}
std::string Job::eval(const std::string& dir, std::size_t k) const {
  return dir + "/" + name() + "/eval" + std::to_string(k) + ".csv";
}

std::vector<Job> jobsFor(Workload w, std::uint64_t seed) {
  using psmgen::ip::IpKind;
  using psmgen::ip::TestsetMode;
  std::vector<Job> jobs;
  switch (w) {
    case Workload::TrainLong:
      for (const IpKind ip : psmgen::ip::kAllIps) {
        jobs.push_back(makeJob(ip, TestsetMode::Long, seed, 0, 0));
      }
      break;
    case Workload::PredictCsv:
      for (const IpKind ip : psmgen::ip::kAllIps) {
        jobs.push_back(
            makeJob(ip, TestsetMode::Short, seed, 1, kPredictEvalCycles));
      }
      break;
  }
  return jobs;
}

void Fnv::add(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

void Fnv::addDouble(double v) {
  unsigned char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  add(bytes, sizeof bytes);
}

std::uint64_t fileDigest(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  Fnv fnv;
  char buf[1 << 16];
  while (is.read(buf, sizeof buf) || is.gcount() > 0) {
    fnv.add(buf, static_cast<std::size_t>(is.gcount()));
  }
  return fnv.h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void writeReference(const std::string& path, const Reference& ref) {
  std::ofstream os(path);
  for (const auto& [key, value] : ref) os << key << ' ' << value << '\n';
  if (!os) throw std::runtime_error("cannot write " + path);
}

Reference readReference(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  Reference ref;
  std::string key;
  std::string value;
  while (is >> key && std::getline(is >> std::ws, value)) ref[key] = value;
  return ref;
}

const std::string& lookup(const Reference& ref, const std::string& key) {
  const auto it = ref.find(key);
  if (it == ref.end()) throw std::runtime_error("reference lacks " + key);
  return it->second;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned nprocs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

namespace {

cpu_set_t processCpus() {
  static const cpu_set_t all = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return all;
}

/// Seconds for a fixed burst of parse-and-lookup work, the instruction mix
/// of CSV parsing and proposition lookup.
double calibrationSeconds() {
  static const std::string text = [] {
    std::string t;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 4096; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      char cell[17];
      std::snprintf(cell, sizeof cell, "%016llx",
                    static_cast<unsigned long long>(x));
      t += cell;
    }
    return t;
  }();
  std::vector<std::uint32_t> table(1u << 16);
  const auto t0 = Clock::now();
  std::uint64_t v = 0;
  for (const char c : text) {
    const int digit = c <= '9' ? c - '0' : c - 'a' + 10;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
    if ((v >> 60) != 0) {
      ++table[(v * 0x9E3779B97F4A7C15ull) >> 48];
      v &= 0xFFFFFFFull;
    }
  }
  volatile std::uint32_t sink = table[v & 0xFFFF];
  (void)sink;
  return secondsSince(t0);
}

/// The CPU, among those the process may use, that runs the calibration
/// loop fastest (the calling thread visits each); -1 if none.
int fastestCpu() {
  const cpu_set_t all = processCpus();
  int best_cpu = -1;
  double best = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    double t = calibrationSeconds();
    for (int rep = 0; rep < 2; ++rep) t = std::min(t, calibrationSeconds());
    if (best_cpu < 0 || t < best) {
      best_cpu = cpu;
      best = t;
    }
  }
  return best_cpu;
}

}  // namespace

void pinToFastestCpu() {
  const int cpu = fastestCpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

void unpinCpu() {
  const cpu_set_t all = processCpus();
  sched_setaffinity(0, sizeof all, &all);
}

}  // namespace perfbench
