#pragma once
// Entry points of the benchmark binary: set-up (inputs and references
// from the workload seed) and measurement (one run of one workload).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/online_predictor.hpp"
#include "util.hpp"

namespace perfbench {

/// The predict.* counters of a stream, space-separated, as the reference
/// file stores them.
std::string statsLine(const psmgen::runtime::PredictorStats& stats);

struct Options {
  Workload workload = Workload::TrainLong;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run directory: set-up writes it, measurement reads it.
  std::string dir;
  /// Self-test hook: corrupt one output before it is checked, so the
  /// correctness check must trip.
  bool perturb = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Context printed beside the metrics: sample counts, percentile
  /// levels, input digests.
  std::vector<std::pair<std::string, std::string>> info;

  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

/// Generates the workload's inputs with the gate-level surrogate, writes
/// them under opts.dir, trains the reference models and writes
/// reference.txt. Throws on any failure.
void runSetup(const Options& opts);

/// Measures one run; with opts.trace the per-layer metrics, otherwise
/// the end-to-end ones.
Outcome runMeasure(const Options& opts);

}  // namespace perfbench
