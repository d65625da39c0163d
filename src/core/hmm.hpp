#pragma once
// Hidden Markov Model over a joined PSM (paper Sec. V).
//
// lambda = <Q, E, A, B, pi> where Q is the set of PSM states, E the set of
// distinct characterizing assertions (pattern sequences), A is built from
// transition multiplicities, B from the multiplicity with which the join
// put each assertion into each state's alternative set, and pi from the
// number of training traces whose PSM starts in each state.
//
// The Filter implements the paper's simulation strategy: a forward
// "filtering" step updates the belief over hidden states from the
// observed assertion; non-deterministic choices pick the most probable
// candidate; when a wrong state is predicted the simulator reverts to the
// last valid state and the offending transition probability is fixed to 0
// (penalize) while the mis-prediction is being repaired. Penalties are
// *transient*: they exist so the repair does not immediately re-pick the
// branch that just failed, and relax() restores the trained matrix once
// the simulator advances cleanly again. (The paper keeps them for the
// rest of the run; over long serving streams that permanently corrodes
// A — every context where the penalized branch was the *right* answer
// then mispredicts too, which is exactly the WSP blow-up this revision
// fixes.) penalizeState covers the first mis-prediction, where there is
// no last-valid source state to index a transition penalty from: the
// wrong state is suppressed in the belief and in the initial-choice
// prior instead.

#include <vector>

#include "core/psm.hpp"

namespace psmgen::core {

using EventId = int;
inline constexpr EventId kNoEvent = -1;

class Hmm {
 public:
  explicit Hmm(const Psm& psm);

  std::size_t stateCount() const { return n_; }
  std::size_t eventCount() const { return events_.size(); }

  /// Event id of an assertion (pattern sequence); kNoEvent if the
  /// sequence never occurs in the PSM.
  EventId eventOf(const PatternSeq& seq) const;
  /// Event id of alternative `alt` of state `s`, fixed at construction.
  EventId eventAt(StateId s, std::size_t alt) const {
    return alt_events_[alt_begin_[static_cast<std::size_t>(s)] + alt];
  }
  const PatternSeq& event(EventId id) const { return events_.at(id); }

  double a(StateId i, StateId j) const { return a_[index(i, j)]; }
  /// Emission probability of event `e` in state `j`; 0 for kNoEvent.
  double b(StateId j, EventId e) const;
  double pi(StateId i) const { return pi_.at(static_cast<std::size_t>(i)); }

  class Filter {
   public:
    explicit Filter(const Hmm& hmm);

    /// Restores belief = pi and clears all penalties.
    void reset();

    /// Forward filtering step given the observed assertion event; it
    /// allocates nothing.
    void step(EventId event);

    /// Collapses the belief to the state the simulator committed to
    /// (mixed with the filtered distribution to keep alternatives alive).
    void commit(StateId s);

    /// Predictive score of moving to `j` next, given the current belief
    /// and the penalized transition matrix.
    double predictiveScore(StateId j, EventId event) const;

    /// Most probable candidate as next state; kNoState for an empty list.
    StateId bestAmong(const std::vector<StateId>& candidates,
                      EventId event) const;

    /// Most probable initial state given pi and the first observation.
    StateId bestInitial(const std::vector<StateId>& candidates,
                        EventId event) const;

    /// Fixes the (penalized) probability of i -> j to 0 until relax().
    void penalize(StateId i, StateId j);

    /// Penalty for a mis-prediction with no source state (the first entry
    /// of a stream): suppresses j in the belief and in the initial-choice
    /// prior until relax(), so the repair cannot re-pick it.
    void penalizeState(StateId j);

    /// Lifts every active penalty: restores the trained transition rows
    /// and the initial prior. The belief is left as filtered (it evolves
    /// on its own). Cheap no-op when nothing is penalized.
    void relax();

    bool hasPenalties() const {
      return !penalized_.empty() || pi_penalized_;
    }

    const std::vector<double>& belief() const { return belief_; }

   private:
    const Hmm* hmm_;
    std::vector<double> belief_;
    /// step()'s next belief, swapped with belief_ when it is adopted.
    std::vector<double> next_;
    std::vector<double> a_penalized_;
    /// Flat a_penalized_ indices currently forced to 0 (relax() undoes
    /// them from hmm_->a_).
    std::vector<std::size_t> penalized_;
    /// Initial-choice prior with penalizeState suppressions; empty means
    /// "use hmm_->pi_ unmodified".
    std::vector<double> pi_overlay_;
    bool pi_penalized_ = false;
  };

 private:
  std::size_t index(StateId i, StateId j) const {
    return static_cast<std::size_t>(i) * n_ + static_cast<std::size_t>(j);
  }

  std::size_t n_ = 0;
  std::vector<double> a_;   ///< row-normalized, row-major
  std::vector<double> pi_;
  std::vector<PatternSeq> events_;
  std::vector<double> b_;  ///< n x eventCount(), row-normalized, row-major
  /// Per state, its first alternative's index into alt_events_ (n + 1
  /// offsets), and per alternative, its event id.
  std::vector<std::size_t> alt_begin_;
  std::vector<EventId> alt_events_;
  friend class Filter;
};

}  // namespace psmgen::core
