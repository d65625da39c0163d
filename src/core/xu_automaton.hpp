#pragma once
// The XU automaton (paper Fig. 5, left) and the assertion extraction it
// drives (function XU_getAssertion of Fig. 4).
//
// The automaton holds a two-element FIFO f over the proposition trace.
// From state X it moves to U when f[1] == f[0] (at least two consecutive
// instants of the same proposition: an `until` pattern is forming) and
// emits  <f[0] X f[1], t, t>  when f[1] != f[0] (a `next` jump). From U it
// stays while f[1] == f[0] and exits back to X emitting
// <p U f[1], start, t>  when the proposition changes. Each emission
// reports the interval [start, stop] where the state's proposition holds,
// which is what the power attributes are computed over; `next` patterns
// occupy a single instant (n = 1, see Sec. IV-A Case 1).

#include <optional>

#include "core/proposition.hpp"
#include "core/psm.hpp"

namespace psmgen::core {

/// One assertion recognised on a proposition trace.
struct MinedAssertion {
  Pattern pattern;
  std::size_t start = 0;
  std::size_t stop = 0;
};

class XuAutomaton {
 public:
  explicit XuAutomaton(const PropositionTrace& gamma) : gamma_(&gamma) {}

  /// Next recognised assertion, or nullopt at the end of the trace
  /// (a trailing proposition that only ever appears as the target of the
  /// previous pattern does not form a state of its own, as in the paper's
  /// Fig. 5 example where p_d closes p_c X p_d).
  std::optional<MinedAssertion> next();

 private:
  PropId at(std::size_t i) const {
    return i < gamma_->length() ? gamma_->at(i) : kNoProp;
  }

  const PropositionTrace* gamma_;
  std::size_t idx_ = 0;  ///< trace position of f[0]
};

}  // namespace psmgen::core
