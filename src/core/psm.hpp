#pragma once
// Power state machine model (paper Def. 3 and Secs. III-B / IV).
//
// PSM = <I, O, S, S0, E, lambda, omega>: here the input alphabet is the
// set of mined propositions (enabling functions test the proposition that
// holds on the IP's PIs/POs), states carry a temporal assertion plus the
// power attributes <mu, sigma, n>, and the output function omega is either
// the constant mu or — after the regression refinement of data-dependent
// states — an affine function of the input Hamming distance.
//
// Assertions compose in two directions:
//   - `simplify` concatenates adjacent patterns into a *sequence*
//     {p_i; p_{i+1}; ...} (satisfied one after the other),
//   - `join` collects sequences from merged states into *alternatives*
//     {seq_i || seq_j || ...} (one of them is satisfied on entry).
// Duplicate alternatives are kept: their multiplicity feeds the HMM's B
// matrix (Sec. V).

#include <optional>
#include <string>
#include <vector>

#include "core/proposition.hpp"
#include "stats/regression.hpp"

namespace psmgen::core {

using StateId = int;
inline constexpr StateId kNoState = -1;

/// One temporal pattern: p U q (until) or p X q (next). q == kNoProp marks
/// a terminal pattern (trace ended while the state was active).
struct Pattern {
  PropId p = kNoProp;
  PropId q = kNoProp;
  bool is_until = false;

  bool operator==(const Pattern&) const = default;
};

/// A `;`-sequence of patterns (simplify). By construction pattern k's exit
/// proposition equals pattern k+1's entry proposition.
using PatternSeq = std::vector<Pattern>;

/// `||`-alternatives of sequences (join). Multiset semantics: `counts`
/// (parallel to `alts`, empty means all 1) records how many merged states
/// contributed each distinct alternative — the multiplicity that feeds
/// the HMM's B matrix. normalizeAssertions() folds duplicates.
struct StateAssertion {
  std::vector<PatternSeq> alts;
  std::vector<std::size_t> counts;

  bool operator==(const StateAssertion&) const = default;

  std::size_t countOf(std::size_t alt) const {
    return counts.empty() ? 1 : counts.at(alt);
  }

  /// The exit proposition of an alternative (q of its last pattern).
  static PropId exitProp(const PatternSeq& seq) {
    return seq.empty() ? kNoProp : seq.back().q;
  }
  /// The entry proposition of an alternative (p of its first pattern).
  static PropId entryProp(const PatternSeq& seq) {
    return seq.empty() ? kNoProp : seq.front().p;
  }
};

/// Power attributes <mu, sigma, n> (paper Sec. III-B), extended with the
/// range of per-interval means the state covers. The range guards the
/// iterative merge procedures against transitive collapse: pairwise
/// mergeability is not transitive, so without a bound on the accumulated
/// spread a long chain of borderline merges can fuse states whose power
/// levels differ by orders of magnitude.
struct PowerAttr {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t n = 0;
  /// Smallest / largest mean of any source interval merged into the state.
  double min_mean = 0.0;
  double max_mean = 0.0;

  /// Initializes a single-interval attribute (range = point).
  static PowerAttr single(double mean, double stddev, std::size_t n);

  /// Exact pooled combination (equivalent to recomputing over the union
  /// of the source intervals of the reference power traces).
  static PowerAttr merged(const PowerAttr& a, const PowerAttr& b);

  /// Coefficient of variation sigma/|mu| (0 when mu == 0).
  double cv() const;
  /// Relative spread of interval means: (max - min) / |mean|.
  double span() const;

  /// Exact (bitwise on doubles) equality; used by the determinism checks
  /// comparing multi-threaded against sequential builds.
  bool operator==(const PowerAttr&) const = default;
};

/// A source interval [start, stop] of a training trace.
struct Interval {
  std::size_t start = 0;
  std::size_t stop = 0;
  int trace_id = 0;

  std::size_t length() const { return stop - start + 1; }
  bool operator==(const Interval&) const = default;
};

/// Which Hamming distance a refined state's output function observes:
/// primary inputs only, or the whole PI+PO interface. The refinement
/// keeps whichever correlates better with the state's power.
enum class HammingScope { Inputs, Interface };

struct PowerState {
  StateId id = kNoState;
  StateAssertion assertion;
  PowerAttr power;
  std::vector<Interval> intervals;
  /// Data-dependent output function (regression refinement, Sec. IV);
  /// when set, omega(s) = intercept + slope * HD, with HD selected by
  /// `regression_scope`.
  std::optional<stats::LinearFit> regression;
  HammingScope regression_scope = HammingScope::Interface;
  /// How many training traces start in this state (HMM pi numerator).
  std::size_t initial_count = 0;

  /// omega(s). `hd` is the Hamming distance between consecutive rows over
  /// the variables of `regression_scope`; a constant-mu state ignores it.
  double output(unsigned hd) const {
    return regression ? regression->predict(static_cast<double>(hd))
                      : power.mean;
  }

  bool operator==(const PowerState&) const = default;
};

struct Transition {
  StateId from = kNoState;
  StateId to = kNoState;
  PropId enabling = kNoProp;
  /// Multiplicity (number of merged transitions folded into this one);
  /// feeds the HMM's A matrix.
  std::size_t count = 1;

  bool operator==(const Transition&) const = default;
};

class Psm {
 public:
  /// Adds a state; assigns and returns its id.
  StateId addState(PowerState state);
  void addTransition(Transition t);
  void addInitial(StateId s);

  std::size_t stateCount() const { return states_.size(); }
  std::size_t transitionCount() const { return transitions_.size(); }

  const PowerState& state(StateId id) const;
  PowerState& state(StateId id);
  const std::vector<PowerState>& states() const { return states_; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  std::vector<Transition>& transitions() { return transitions_; }
  const std::vector<StateId>& initialStates() const { return initials_; }

  /// All transitions leaving `from` (with multiplicity).
  std::vector<Transition> transitionsFrom(StateId from) const;
  /// Targets of transitions leaving `from` whose enabling proposition is
  /// `enabling` (with multiplicity).
  std::vector<StateId> successorsOn(StateId from, PropId enabling) const;

  /// True if the PSM is a chain: every state has at most one outgoing and
  /// one incoming transition (the shape PSMGenerator produces).
  bool isChain() const;

  /// Drops duplicate transitions / initial entries but keeps multiplicity
  /// information in the HMM inputs; used only by tests.
  void validate() const;

  /// Exact structural equality (states with their <mu, sigma, n>
  /// attributes, transitions, initial set); the determinism contract of
  /// FlowConfig::num_threads is stated in terms of this comparison.
  bool operator==(const Psm&) const = default;

 private:
  std::vector<PowerState> states_;
  std::vector<Transition> transitions_;
  std::vector<StateId> initials_;
};

/// Folds duplicate alternatives (into StateAssertion::counts) and
/// duplicate transitions (into Transition::count) across the whole PSM.
/// Purely a representation change: multiplicities are preserved.
void normalizeAssertions(Psm& psm);

/// Renders an assertion like "{pa U pb ; pb X pc || pd U pa}".
std::string toString(const StateAssertion& a, const PropositionDomain& domain);
std::string toString(const Pattern& p, const PropositionDomain& domain);

}  // namespace psmgen::core
