#pragma once
// End-to-end characterization flow: the paper's "automatic tool" (Sec. VI).
//
//   training (functional, power) pairs
//     -> mine atoms, build the shared proposition domain      (III-A)
//     -> proposition trace + PSMGenerator per training pair   (III-B)
//     -> simplify each chain                                  (IV)
//     -> join into one combined PSM                           (IV)
//     -> regression refinement of data-dependent states       (IV)
//     -> HMM-backed simulator                                 (V)

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/merge.hpp"
#include "core/miner.hpp"
#include "core/psm_simulator.hpp"
#include "core/refine.hpp"
#include "trace/functional_trace.hpp"
#include "trace/power_trace.hpp"

namespace psmgen::core {

struct FlowConfig {
  MinerConfig miner;
  MergePolicy merge;
  RefineConfig refine;
  SimOptions sim;
  /// Ablation knob (on for the paper's flow).
  bool apply_refine = true;
  /// Threads for the embarrassingly parallel stages of build(): the walk
  /// over the training rows and the per-chunk signature numbering, the
  /// per-trace XU-automaton walk / chain simplification, and the
  /// per-state regression fits of the refinement.
  /// 0 = all hardware threads, 1 = the sequential seed path.
  /// The combined PSM is bit-identical for every value: parallel results
  /// land in per-index slots, proposition interning and merging stay in
  /// fixed index order.
  unsigned num_threads = 1;
};

struct BuildReport {
  std::size_t atoms = 0;
  std::size_t propositions = 0;
  std::size_t raw_states = 0;       ///< states before simplify/join
  std::size_t states = 0;           ///< states of the combined PSM
  std::size_t transitions = 0;
  std::size_t simplified_pairs = 0; ///< adjacent fusions performed
  std::size_t refined_states = 0;   ///< states with a regression model
  double generation_seconds = 0.0;  ///< Table II "PSMs gen." column
};

class CharacterizationFlow {
 public:
  explicit CharacterizationFlow(FlowConfig config = {})
      : config_(std::move(config)) {}

  /// Registers one training pair. All functional traces must share a
  /// variable set; the power trace must be at least as long.
  void addTrainingTrace(trace::FunctionalTrace functional,
                        trace::PowerTrace power);

  /// Runs the whole pipeline. Must be called after at least one
  /// addTrainingTrace; may be called again after adding more traces.
  BuildReport build();

  bool built() const { return simulator_ != nullptr; }

  const PropositionDomain& domain() const;
  const Psm& psm() const;
  const PsmSimulator& simulator() const;
  const std::vector<trace::FunctionalTrace>& trainingFunctional() const {
    return functional_;
  }
  const std::vector<trace::PowerTrace>& trainingPower() const { return power_; }

  /// Simulates the combined PSM on a functional trace.
  SimResult estimate(const trace::FunctionalTrace& trace) const;

  /// MRE of the PSM estimate against a reference power trace.
  double evaluateMre(const trace::FunctionalTrace& trace,
                     const trace::PowerTrace& reference) const;

 private:
  FlowConfig config_;
  std::vector<trace::FunctionalTrace> functional_;
  std::vector<trace::PowerTrace> power_;

  std::unique_ptr<PropositionDomain> domain_;
  Psm combined_;
  std::unique_ptr<PsmSimulator> simulator_;
};

}  // namespace psmgen::core
