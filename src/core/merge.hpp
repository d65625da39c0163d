#pragma once
// Combination and optimization of PSMs (paper Sec. IV).
//
// `simplify` shortens each chain-shaped PSM by fusing *adjacent* states
// that are mergeable from the power point of view; the fused state's
// assertion is the `;`-sequence of the original assertions and its power
// attributes are recomputed over the union of the source intervals.
//
// `join` collapses mergeable states *across* the whole set of simplified
// PSMs (not necessarily adjacent); the fused state's assertion is the
// `||`-set of the original alternatives, predecessors/successors are
// re-wired, and start/stop become arrays (we keep the tagged interval
// list). Joining states with identical assertions and enabling functions
// yields a non-deterministic PSM, which the HMM of Sec. V resolves.
//
// Mergeability (Sec. IV-A) compares power attributes:
//   Case 1  n_i = n_j = 1      : |mu_i - mu_j| < epsilon
//   Case 2  n_i > 1, n_j > 1   : Welch's t-test
//   Case 3  n_i > 1, n_j = 1   : one-sample t-test of mu_j against i
// The paper's informal precondition that the standard deviations be "low"
// is not a gate: Welch's test decides, which merges same-mean states of
// high variance (data-dependent states, later refined by regression). As
// a practical extension (documented in DESIGN.md), a designer tolerance
// also applies to Cases 2/3: with very large n the t-test rejects
// physically irrelevant mean differences, so states whose means differ by
// less than epsilon merge regardless of the p-value.

#include "core/psm.hpp"
#include "stats/ttest.hpp"

namespace psmgen::core {

struct MergePolicy {
  /// Absolute designer tolerance on |mu_i - mu_j| (same unit as power).
  double epsilon_abs = 0.0;
  /// Relative designer tolerance: epsilon = epsilon_rel * max(|mu_i|,|mu_j|).
  double epsilon_rel = 0.03;
  /// Significance level: states merge when the t-test p-value exceeds it.
  double alpha = 1e-4;
  /// Bound on the relative spread of interval means a merged state may
  /// cover: merging a and b is vetoed when
  /// (max_mean - min_mean) / |pooled mean| would exceed this. Pairwise
  /// mergeability is not transitive; the span bound stops borderline
  /// merges from chaining states of very different power levels.
  double max_span = 0.25;
  /// Second join phase: states whose assertion sets have identical entry
  /// propositions describe the *same functional behaviour* split into
  /// power buckets by data-dependent activity; they are consolidated into
  /// one state (whose continuum the regression refinement then models).
  /// Buckets of one continuum overlap or abut, so consolidation requires
  /// the *gap* between the two interval-mean ranges to be below
  /// `data_gap` (relative to the pooled mean) — two genuinely different
  /// modes that share an entry proposition (an idle and a busy phase that
  /// look identical at the ports) sit far apart and stay separate. The
  /// combined span is additionally capped by `data_span`.
  double data_gap = 0.8;
  double data_span = 4.0;

  double epsilonFor(const PowerAttr& a, const PowerAttr& b) const;
};

/// Sec. IV-A mergeability decision on power attributes.
bool mergeable(const PowerAttr& a, const PowerAttr& b, const MergePolicy& pol);

/// In-place chain simplification; returns the number of fused pairs.
/// Every state must have exactly one alternative, as an XU chain's states
/// do; otherwise it throws std::invalid_argument before anything changes,
/// whether or not that state would have been fused.
std::size_t simplify(Psm& psm, const MergePolicy& pol);

/// Joins a set of simplified PSMs into one PSM with one initial state per
/// input chain (merged initials accumulate initial_count). Runs the
/// cross-PSM merge to fixpoint: each state is tested, in state order,
/// against its bucket's cluster representatives and joins the first that
/// fits. The input states move into the result; pass the PSMs by
/// std::move when they are not needed afterwards.
Psm join(std::vector<Psm> psms, const MergePolicy& pol);

}  // namespace psmgen::core
