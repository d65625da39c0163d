#pragma once
// Dynamic mining of atomic propositions and proposition traces
// (paper Sec. III-A, following the two-phase procedure of [9]).
//
// Phase 1 extracts atomic propositions that hold *frequently* on the
// training traces: boolean tests on 1-bit variables, equality against
// frequently observed constants for wide variables, and (optionally)
// relational atoms between same-width variable pairs. Candidates whose
// truth value is constant over the whole training set discriminate
// nothing and are dropped; candidates whose truth value toggles too often
// (pure data noise) are dropped as well — [9] keeps relations that hold
// over sub-traces, i.e. that are stable over intervals.
//
// Phase 2 AND-composes the atoms row-wise (matrix m of the paper) so that
// exactly one proposition holds per instant, and emits the proposition
// trace.

#include <vector>

#include "common/thread_pool.hpp"
#include "core/proposition.hpp"
#include "trace/functional_trace.hpp"

namespace psmgen::core {

struct MinerConfig {
  /// Minimum fraction of instants a mined constant value must cover for a
  /// "var = const" atom over a wide variable.
  double min_constant_support = 0.05;
  /// Maximum number of constant-equality atoms per wide variable.
  std::size_t max_constants_per_var = 4;
  /// Constants are mined only for *control-like* variables: those taking
  /// at most this many distinct values over the training set. Variables
  /// with many distinct values carry data, and "var = const" atoms over
  /// them fragment the proposition trace without describing behaviour.
  /// Counting a variable's values stops at the first distinct value past
  /// this bound, which also bounds the memory spent on random data.
  std::size_t max_distinct_for_constants = 8;
  /// Drop atoms whose truth value changes between consecutive instants
  /// more often than this fraction (noise filter).
  double max_toggle_rate = 0.25;
  /// Wide-variable atoms (constants, zero tests, var-var relations) whose
  /// truth-runs are mostly single-instant spikes describe incidental data
  /// coincidences (e.g. "addr = 0" firing once as a sweep crosses zero),
  /// not operating modes; they are dropped when the fraction of
  /// length-1 runs exceeds this bound. Boolean control atoms are exempt:
  /// single-cycle pulses (start/done strobes) are real behaviour.
  double max_singleton_run_fraction = 0.25;
  /// Mine "var = 0" atoms for wide variables even when 0 is not frequent.
  bool mine_zero = true;
  /// Threads used for candidate extraction and the per-atom statistics
  /// scan when the caller does not hand in a pool: 0 = all hardware
  /// threads, 1 = the sequential seed path. Mined atoms are independent
  /// of the thread count (per-variable / per-atom results land in
  /// pre-sized slots and are concatenated in index order).
  unsigned num_threads = 1;
};

class AssertionMiner {
 public:
  explicit AssertionMiner(MinerConfig config = {}) : config_(config) {}

  /// Phase 1 over the union of all training traces; all traces must share
  /// one variable set. Returns the filtered atom list. When `pool` is
  /// null, a private pool honouring config.num_threads is used.
  std::vector<AtomicProposition> mineAtoms(
      const std::vector<const trace::FunctionalTrace*>& traces,
      common::ThreadPool* pool = nullptr) const;

  /// Builds the shared proposition domain from the mined atoms.
  PropositionDomain buildDomain(
      const std::vector<const trace::FunctionalTrace*>& traces,
      common::ThreadPool* pool = nullptr) const;

  /// Phase 2: proposition trace of one functional trace, interning any new
  /// signatures into the domain.
  static PropositionTrace tracePropositions(PropositionDomain& domain,
                                            const trace::FunctionalTrace& t);

 private:
  std::vector<AtomicProposition> candidateAtoms(
      const std::vector<const trace::FunctionalTrace*>& traces,
      common::ThreadPool* pool) const;

  MinerConfig config_;
};

}  // namespace psmgen::core
