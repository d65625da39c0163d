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
//
// After the wide variables' values are counted, phase 1 walks each training
// row once: the walk writes the row of m over every candidate atom (its
// truth words) and the row's Hamming distances, from which the filters'
// statistics, the kept atoms' signatures and the refinement's regressors
// all derive.

#include <array>
#include <cstdint>
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
};

/// Support / toggle / run-structure counters of one candidate atom over
/// the training set. A toggle is a truth change between consecutive rows
/// of one trace; a run ends where the truth changes or its trace ends.
struct AtomStats {
  std::size_t hold = 0;
  std::size_t toggles = 0;
  // Per-polarity run statistics: [truth].
  std::array<std::size_t, 2> runs{{0, 0}};
  std::array<std::size_t, 2> singleton_runs{{0, 0}};

  /// Counts a run of `length` rows on which the atom is `truth`.
  void closeRun(bool truth, std::size_t length) {
    ++runs[truth];
    if (length == 1) ++singleton_runs[truth];
    if (truth) hold += length;
  }

  bool operator==(const AtomStats&) const = default;
};

/// Rows [begin, end) of training trace `trace`: the unit of work of the
/// walk over the training rows and of the flow's interning.
struct RowChunk {
  std::size_t trace = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Rows per chunk; only a trace's last chunk is shorter.
inline constexpr std::size_t kRowChunk = 2048;

/// The Hamming distances of one training row to the row before it in its
/// trace: over the input variables, and over every variable (inputs and
/// outputs). Both are 0 on a trace's first row.
struct RowDistances {
  std::uint32_t inputs = 0;
  std::uint32_t interface = 0;

  bool operator==(const RowDistances&) const = default;
};

/// What the walk over the training rows leaves behind. The candidate truth
/// words of every row stay private: they are read through holds() and
/// numberChunk() until releaseTruths() frees them.
class MinedRows {
 public:
  /// Every candidate atom, and its statistics over the training set.
  std::vector<AtomicProposition> candidates;
  std::vector<AtomStats> stats;
  /// The candidates that passed the filters, in candidate order.
  std::vector<AtomicProposition> atoms;
  /// Every training row exactly once, in trace and row order.
  std::vector<RowChunk> chunks;
  /// Per trace, one entry per row.
  std::vector<std::vector<RowDistances>> distances;

  /// Whether candidate `a` holds on row t of trace `trace`.
  bool holds(std::size_t trace, std::size_t t, std::size_t a) const;
  /// Numbers the rows of chunk `c` by their signature over `atoms`: writes
  /// each row's id in `index`, which lists the chunk's signatures in
  /// first-seen order, into ids[t]. `ids` holds one entry per row of the
  /// chunk's trace.
  void numberChunk(std::size_t c, std::vector<PropId>& ids,
                   SignatureIndex& index) const;
  /// Frees the truth words; holds() and numberChunk() are not called after.
  void releaseTruths() { truths_ = {}; }

 private:
  friend class AssertionMiner;

  /// Marks a candidate that is not among the kept atoms.
  static constexpr std::uint32_t kDropped = UINT32_MAX;

  /// Per candidate, its index among `atoms` or kDropped.
  std::vector<std::uint32_t> atom_index_;
  /// Truth words per row: ceil(candidates / 64).
  std::size_t words_ = 0;
  /// Per trace, words_ words per row: candidate a holds on row t iff bit
  /// a % 64 of word t * words_ + a / 64 is set.
  std::vector<std::vector<std::uint64_t>> truths_;
};

class AssertionMiner {
 public:
  explicit AssertionMiner(MinerConfig config = {}) : config_(config) {}

  /// Phase 1 over the union of all training traces, which must share one
  /// variable set, in one walk over their rows on the pool (sequentially
  /// when `pool` is null). The mined atoms do not depend on the pool:
  /// per-variable and per-chunk results land in pre-sized slots and are
  /// combined in index order.
  MinedRows mine(const std::vector<const trace::FunctionalTrace*>& traces,
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
