#include "core/merge.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "obs/obs.hpp"

namespace psmgen::core {

double MergePolicy::epsilonFor(const PowerAttr& a, const PowerAttr& b) const {
  const double scale = std::max(std::fabs(a.mean), std::fabs(b.mean));
  return std::max(epsilon_abs, epsilon_rel * scale);
}

namespace {

/// Accept/reject counters of one mergeability test kind. Handles are
/// resolved once (mergeable() runs per candidate pair, in the per-trace
/// simplify tasks on the pool and in the join); a decision while
/// observability is disabled costs one relaxed load + branch.
struct TestKindCounters {
  obs::Counter& accepted;
  obs::Counter& rejected;
  explicit TestKindCounters(const char* kind)
      : accepted(obs::metrics().counter(std::string("merge.test.") + kind +
                                        ".accepted")),
        rejected(obs::metrics().counter(std::string("merge.test.") + kind +
                                        ".rejected")) {}
  bool decide(bool accept) {
    (accept ? accepted : rejected).add(1);
    return accept;
  }
};

}  // namespace

bool mergeable(const PowerAttr& a, const PowerAttr& b, const MergePolicy& pol) {
  // Per-kind decision tallies (Sec. IV-A Cases 1-3 plus the documented
  // span guard and the designer-tolerance extension).
  static TestKindCounters epsilon_counters("epsilon");
  static TestKindCounters welch_counters("welch");
  static TestKindCounters one_sample_counters("one_sample");
  static obs::Counter& span_vetoes =
      obs::metrics().counter("merge.test.span_veto");

  if (a.n == 0 || b.n == 0) return false;
  const double eps = pol.epsilonFor(a, b);
  const double dmu = std::fabs(a.mean - b.mean);

  // Span guard: veto merges whose combined interval-mean range is too
  // wide relative to the pooled mean (anti-snowball, see MergePolicy).
  {
    const PowerAttr pooled = PowerAttr::merged(a, b);
    if (pooled.span() > pol.max_span) {
      span_vetoes.add(1);
      return false;
    }
  }

  // Case 1: two next-pattern states.
  if (a.n == 1 && b.n == 1) return epsilon_counters.decide(dmu < eps);

  // Designer tolerance (documented extension; see header).
  if (dmu <= eps) return epsilon_counters.decide(true);

  if (a.n > 1 && b.n > 1) {
    // Case 2: Welch's t-test.
    const stats::TTestResult r = stats::welchTTest({a.mean, a.stddev, a.n},
                                                   {b.mean, b.stddev, b.n});
    return welch_counters.decide(r.p_value > pol.alpha);
  }
  // Case 3: one-sample t-test of the single observation against the set.
  const PowerAttr& pop = a.n > 1 ? a : b;
  const double x = a.n > 1 ? b.mean : a.mean;
  const stats::TTestResult r =
      stats::oneSampleTTest({pop.mean, pop.stddev, pop.n}, x);
  return one_sample_counters.decide(r.p_value > pol.alpha);
}

namespace {

/// Orders the states of a chain PSM from its initial state.
std::vector<StateId> chainOrder(const Psm& psm) {
  if (psm.stateCount() == 0) return {};
  if (psm.initialStates().size() != 1 || !psm.isChain()) {
    throw std::invalid_argument("simplify: PSM is not a single-entry chain");
  }
  // A chain leaves each state through at most one transition, so one
  // pass over the transitions indexes the walk and keeps each simplify
  // pass linear in the chain length.
  std::vector<StateId> next(psm.stateCount(), kNoState);
  for (const Transition& t : psm.transitions()) {
    next[static_cast<std::size_t>(t.from)] = t.to;
  }
  std::vector<StateId> order;
  StateId cur = psm.initialStates().front();
  order.push_back(cur);
  while (next[static_cast<std::size_t>(cur)] != kNoState) {
    cur = next[static_cast<std::size_t>(cur)];
    order.push_back(cur);
    if (order.size() > psm.stateCount()) {
      throw std::logic_error("simplify: cycle in chain PSM");
    }
  }
  return order;
}

}  // namespace

std::size_t simplify(Psm& psm, const MergePolicy& pol) {
  if (psm.stateCount() <= 1) return 0;
  for (const PowerState& s : psm.states()) {
    if (s.assertion.alts.size() != 1) {
      throw std::invalid_argument("simplify: states must have one alternative");
    }
  }
  std::size_t total_fused = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const std::vector<StateId> order = chainOrder(psm);

    // One left-to-right pass fusing adjacent mergeable states in place.
    // States move out of the old chain; nothing reads it afterwards.
    std::vector<PowerState> fused;
    fused.reserve(order.size());
    fused.push_back(std::move(psm.state(order.front())));
    for (std::size_t i = 1; i < order.size(); ++i) {
      PowerState& next = psm.state(order[i]);
      if (!mergeable(fused.back().power, next.power, pol)) {
        fused.push_back(std::move(next));
        continue;
      }
      PowerState& last = fused.back();
      // `next` becomes the last pattern of `last`'s `;`-sequence. The
      // fused sequence is a new behaviour: multiplicity 1, no regression.
      PatternSeq& seq = last.assertion.alts.front();
      const PatternSeq& tail = next.assertion.alts.front();
      seq.insert(seq.end(), tail.begin(), tail.end());
      last.assertion.counts.clear();
      last.power = PowerAttr::merged(last.power, next.power);
      last.intervals.insert(last.intervals.end(), next.intervals.begin(),
                            next.intervals.end());
      last.regression.reset();
      last.regression_scope = HammingScope::Interface;
      last.initial_count += next.initial_count;
      ++total_fused;
      changed = true;
    }

    Psm rebuilt;
    StateId prev = kNoState;
    for (auto& s : fused) {
      PowerState state = std::move(s);
      const std::size_t initial_count = state.initial_count;
      state.id = kNoState;
      const StateId id = rebuilt.addState(std::move(state));
      if (prev == kNoState) {
        rebuilt.addInitial(id);
        rebuilt.state(id).initial_count = std::max<std::size_t>(1, initial_count);
      } else {
        // The enabling function is the exit proposition of the previous
        // fused state's last pattern.
        rebuilt.addTransition(
            {prev, id,
             StateAssertion::exitProp(
                 rebuilt.state(prev).assertion.alts.front())});
        rebuilt.state(id).initial_count = 0;
      }
      prev = id;
    }
    psm = std::move(rebuilt);
  }
  obs::metrics().counter("merge.simplify.fused_pairs").add(total_fused);
  return total_fused;
}

namespace {

/// Union of PSMs without any merging, the join's first step; the states
/// move into the result.
Psm disjointUnion(std::vector<Psm> psms) {
  Psm out;
  for (Psm& p : psms) {
    std::vector<StateId> remap(p.stateCount(), kNoState);
    for (StateId id = 0; id < static_cast<StateId>(p.stateCount()); ++id) {
      PowerState& s = p.state(id);
      s.id = kNoState;
      remap[static_cast<std::size_t>(id)] = out.addState(std::move(s));
    }
    for (const auto& t : p.transitions()) {
      out.addTransition({remap[static_cast<std::size_t>(t.from)],
                         remap[static_cast<std::size_t>(t.to)], t.enabling});
    }
    for (const StateId s : p.initialStates()) {
      out.addInitial(remap[static_cast<std::size_t>(s)]);
    }
  }
  return out;
}

/// Removes dead states, renumbers the survivors (moving them), and
/// rebuilds the initial set from initial_count (fused initial states keep
/// their multiplicity).
Psm compact(Psm psm, const std::vector<char>& alive) {
  Psm out;
  std::vector<StateId> remap(psm.stateCount(), kNoState);
  for (StateId id = 0; id < static_cast<StateId>(psm.stateCount()); ++id) {
    if (!alive[static_cast<std::size_t>(id)]) continue;
    PowerState& s = psm.state(id);
    s.id = kNoState;
    remap[static_cast<std::size_t>(id)] = out.addState(std::move(s));
  }
  for (const auto& t : psm.transitions()) {
    out.addTransition({remap[static_cast<std::size_t>(t.from)],
                       remap[static_cast<std::size_t>(t.to)], t.enabling});
  }
  for (const auto& s : out.states()) {
    if (s.initial_count > 0) out.addInitial(s.id);
  }
  return out;
}

/// Merges state j's payload (assertion alternatives, power attributes,
/// intervals, initial multiplicity) into state i; j is dead afterwards, so
/// its alternatives move. Transitions are NOT rewired here; join() remaps
/// them once at the end via the parent map.
void fusePayload(Psm& merged, std::size_t i, std::size_t j) {
  PowerState& a = merged.state(static_cast<StateId>(i));
  PowerState& b = merged.state(static_cast<StateId>(j));
  if (a.assertion.counts.empty()) {
    a.assertion.counts.assign(a.assertion.alts.size(), 1);
  }
  for (std::size_t alt = 0; alt < b.assertion.alts.size(); ++alt) {
    a.assertion.counts.push_back(b.assertion.countOf(alt));
  }
  a.assertion.alts.insert(a.assertion.alts.end(),
                          std::make_move_iterator(b.assertion.alts.begin()),
                          std::make_move_iterator(b.assertion.alts.end()));
  a.power = PowerAttr::merged(a.power, b.power);
  a.intervals.insert(a.intervals.end(), b.intervals.begin(),
                     b.intervals.end());
  a.initial_count += b.initial_count;
}

/// Sorted unique entry propositions of a state's assertion set.
std::vector<PropId> entryPropSet(const PowerState& s) {
  std::vector<PropId> entries;
  for (const auto& seq : s.assertion.alts) {
    entries.push_back(StateAssertion::entryProp(seq));
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  return entries;
}


/// Relative gap between the interval-mean ranges of two states: 0 when
/// they overlap, otherwise the distance between the ranges divided by the
/// pooled mean.
double rangeGap(const PowerAttr& a, const PowerAttr& b) {
  const double gap =
      std::max(0.0, std::max(a.min_mean, b.min_mean) -
                        std::min(a.max_mean, b.max_mean));
  const PowerAttr pooled = PowerAttr::merged(a, b);
  if (pooled.mean == 0.0) return gap == 0.0 ? 0.0 : 1e18;
  return gap / std::fabs(pooled.mean);
}

}  // namespace

Psm join(std::vector<Psm> psms, const MergePolicy& pol) {
  Psm merged = disjointUnion(std::move(psms));
  if (merged.stateCount() == 0) return merged;

  // The methodology presupposes a correspondence between functional
  // behaviour and energy consumption (Sec. III-B); merging states that
  // share no entry proposition would fuse *different* behaviours that
  // merely happen to burn similar power, making every exit choice
  // non-deterministic. We therefore require a common entry proposition
  // in addition to power mergeability — which also lets the quadratic
  // merge run per entry-proposition bucket instead of over all pairs.
  // Chain states carry exactly one alternative, so entry sets are
  // singletons and bucketing by the entry proposition is exact.
  std::unordered_map<PropId, std::vector<std::size_t>> buckets;
  for (const auto& s : merged.states()) {
    buckets[entryPropSet(s).front()].push_back(static_cast<std::size_t>(s.id));
  }

  // Union-find parent map: transitions are remapped once at the end
  // instead of being rewritten on every fuse.
  std::vector<std::size_t> parent(merged.stateCount());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::vector<char> alive(merged.stateCount(), 1);

  // Representative-based clustering: each surviving state is tested
  // against the bucket's current cluster representatives and joins the
  // first that fits; repeated until a pass makes no change (pooled
  // attributes move as clusters grow, so one pass is not always enough).
  // The scan is sequential: every absorption mutates the representative's
  // pooled attributes, which later tests observe.
  auto cluster = [&](const std::vector<std::size_t>& members, auto&& fits) {
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<std::size_t> reps;
      for (const std::size_t m : members) {
        if (!alive[m]) continue;
        std::size_t hit = reps.size();
        for (std::size_t r = 0; r < reps.size(); ++r) {
          if (fits(merged.state(static_cast<StateId>(reps[r])),
                   merged.state(static_cast<StateId>(m)))) {
            hit = r;
            break;
          }
        }
        if (hit < reps.size()) {
          fusePayload(merged, reps[hit], m);
          alive[m] = 0;
          parent[m] = reps[hit];
          changed = true;
        } else {
          reps.push_back(m);
        }
      }
    }
  };

  obs::metrics().gauge("merge.join.states_before")
      .set(static_cast<double>(merged.stateCount()));
  obs::metrics().gauge("merge.join.buckets")
      .set(static_cast<double>(buckets.size()));

  for (auto& [entry, members] : buckets) {
    cluster(members, [&](const PowerState& a, const PowerState& b) {
      return mergeable(a.power, b.power, pol);
    });
  }
  std::size_t alive_after_power = 0;
  for (const char f : alive) alive_after_power += static_cast<std::size_t>(f);
  obs::metrics().gauge("merge.join.states_after_power")
      .set(static_cast<double>(alive_after_power));

  // Data-dependent consolidation: same functional behaviour (identical
  // entry propositions) split into power buckets by data activity.
  // Buckets of one data-dependent continuum overlap or abut (small range
  // gap); two *different* modes that share an entry proposition — e.g. an
  // idle and a busy phase that look identical at the ports — sit far
  // apart in power and stay separate.
  for (auto& [entry, members] : buckets) {
    cluster(members, [&](const PowerState& a, const PowerState& b) {
      return rangeGap(a.power, b.power) <= pol.data_gap &&
             PowerAttr::merged(a.power, b.power).span() <= pol.data_span;
    });
  }

  // Path-compressed lookup, then remap every transition endpoint.
  std::vector<std::size_t> root(merged.stateCount());
  for (std::size_t i = 0; i < root.size(); ++i) {
    std::size_t r = i;
    while (parent[r] != r) r = parent[r];
    root[i] = r;
  }
  for (auto& t : merged.transitions()) {
    t.from = static_cast<StateId>(root[static_cast<std::size_t>(t.from)]);
    t.to = static_cast<StateId>(root[static_cast<std::size_t>(t.to)]);
  }

  const std::size_t states_before = merged.stateCount();
  Psm out = compact(std::move(merged), alive);
  normalizeAssertions(out);
  obs::metrics().gauge("merge.join.states_after")
      .set(static_cast<double>(out.stateCount()));
  obs::debug("merge.joined", {{"states_before", states_before},
                              {"states_after", out.stateCount()},
                              {"transitions", out.transitionCount()}});
  return out;
}

}  // namespace psmgen::core
