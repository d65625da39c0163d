#pragma once
// Regression refinement of data-dependent power states (paper Sec. IV,
// last step): states with a "too high" standard deviation are likely
// data-dependent, so the constant mu is replaced by a linear function of
// the Hamming distance between consecutive primary-input values —
// provided the linear correlation is strong (necessary condition for an
// accurate regression, paper's reference [11]).

#include <vector>

#include "common/thread_pool.hpp"
#include "core/miner.hpp"
#include "core/psm.hpp"
#include "trace/power_trace.hpp"

namespace psmgen::core {

struct RefineConfig {
  /// States with coefficient of variation sigma/mu above this threshold
  /// are data-dependent candidates.
  double min_cv = 0.10;
  /// Minimum |Pearson r| between input Hamming distance and power for the
  /// regression to be adopted.
  double min_abs_r = 0.70;
  /// Minimum number of samples across the state's intervals.
  std::size_t min_samples = 8;
};

struct RefineReport {
  std::size_t candidates = 0;  ///< states over the cv threshold
  std::size_t refined = 0;     ///< states that received a regression model
};

/// Applies the refinement in place. `distances[i]` (one entry per row) and
/// `power[i]` must belong to the training pair whose trace_id is i (as
/// tagged in state intervals). A non-null pool fits the candidate states
/// in parallel, one per-state slot each; the regressions are then adopted,
/// and the `refine.*` metrics recorded, in state order, so the PSM is
/// identical for every pool. An interval naming an unknown trace throws
/// std::out_of_range before any state changes.
RefineReport refineDataDependentStates(
    Psm& psm, const std::vector<std::vector<RowDistances>>& distances,
    const std::vector<trace::PowerTrace>& power, const RefineConfig& cfg,
    common::ThreadPool* pool = nullptr);

}  // namespace psmgen::core
