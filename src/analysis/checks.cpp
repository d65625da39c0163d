#include "analysis/checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/hmm.hpp"

namespace psmgen::analysis::detail {

namespace {

using core::kNoProp;
using core::kNoState;
using core::PropId;
using core::StateId;

/// All checks funnel through one emitter so the finding shape stays
/// uniform (id, severity, locus, message, hint).
class Sink {
 public:
  explicit Sink(LintReport& report) : report_(report) {}

  void emit(const char* id, Severity severity, Locus locus,
            std::string message, std::string hint) {
    report_.add(Finding{id, severity, std::move(locus), std::move(message),
                        std::move(hint)});
  }

 private:
  LintReport& report_;
};

Locus atState(StateId s) {
  Locus l;
  l.state = s;
  return l;
}

Locus atAlt(StateId s, std::size_t alt) {
  Locus l;
  l.state = s;
  l.alt = static_cast<int>(alt);
  return l;
}

Locus atTransition(StateId s, std::size_t index) {
  Locus l;
  l.state = s;
  l.transition = static_cast<int>(index);
  return l;
}

std::string fmt(double v) {
  // Shortest round-trippable-ish rendering for messages; findings are
  // for humans and goldens, not for parsing values back.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// --- domain ---------------------------------------------------------------

void checkDomain(const core::Psm& psm, const core::PropositionDomain& domain,
                 Sink& sink) {
  const std::size_t atom_count = domain.atoms().size();
  for (PropId id = 0; id < static_cast<PropId>(domain.size()); ++id) {
    if (domain.signature(id).width() != atom_count) {
      Locus locus;
      locus.detail = "proposition " + std::to_string(id);
      sink.emit("PSM-DOM-001", Severity::Error, std::move(locus),
                "proposition " + std::to_string(id) + " signature has " +
                    std::to_string(domain.signature(id).width()) +
                    " bits but the domain mines " +
                    std::to_string(atom_count) + " atoms",
                "re-train: the domain and its interned signatures must "
                "describe the same atom set");
    }
  }

  // Propositions the PSM never references. Normal for a trained model
  // (the domain interns every signature seen in training, the combined
  // PSM keeps only what survived simplify/join), so this is a single
  // informational tally, not a per-proposition flood.
  std::vector<bool> used(domain.size(), false);
  const auto mark = [&](PropId id) {
    if (id != kNoProp && id >= 0 &&
        static_cast<std::size_t>(id) < domain.size()) {
      used[static_cast<std::size_t>(id)] = true;
    }
  };
  for (const auto& s : psm.states()) {
    for (const auto& seq : s.assertion.alts) {
      for (const auto& p : seq) {
        mark(p.p);
        mark(p.q);
      }
    }
  }
  for (const auto& t : psm.transitions()) mark(t.enabling);
  const std::size_t unused = static_cast<std::size_t>(
      std::count(used.begin(), used.end(), false));
  if (unused > 0) {
    Locus locus;
    locus.detail = "proposition domain";
    sink.emit("PSM-DOM-002", Severity::Info, std::move(locus),
              std::to_string(unused) + " of " +
                  std::to_string(domain.size()) +
                  " interned propositions are not referenced by any "
                  "assertion or transition",
              "expected after simplify/join; a very large share may mean "
              "the training set barely exercises the IP");
  }
}

// --- initial states / reachability ----------------------------------------

/// Roots of the reachability walk: the explicit initial multiset plus
/// states with a nonzero HMM-pi numerator.
std::vector<StateId> initialRoots(const core::Psm& psm) {
  std::set<StateId> roots(psm.initialStates().begin(),
                          psm.initialStates().end());
  for (const auto& s : psm.states()) {
    if (s.initial_count > 0) roots.insert(s.id);
  }
  return {roots.begin(), roots.end()};
}

void checkInitials(const core::Psm& psm, Sink& sink) {
  if (psm.stateCount() == 0) return;
  if (initialRoots(psm).empty()) {
    Locus locus;
    locus.detail = "initial states";
    sink.emit("PSM-INIT-001", Severity::Error, std::move(locus),
              "model has no initial state (empty initial multiset and "
              "every initial_count is 0)",
              "the simulator would fall back to a uniform pi; re-train or "
              "repair the artifact");
    return;
  }
  const std::set<StateId> listed(psm.initialStates().begin(),
                                 psm.initialStates().end());
  for (const auto& s : psm.states()) {
    const bool in_list = listed.count(s.id) > 0;
    const bool counted = s.initial_count > 0;
    if (in_list != counted) {
      sink.emit("PSM-INIT-002", Severity::Warn, atState(s.id),
                "state " + std::to_string(s.id) +
                    (in_list ? " is in the initial multiset but has "
                               "initial_count 0"
                             : " has initial_count " +
                                   std::to_string(s.initial_count) +
                                   " but is missing from the initial "
                                   "multiset"),
                "the HMM pi numerator and the initial multiset should "
                "agree; one of them was mutated after training");
    }
  }
}

void checkReachability(const core::Psm& psm, Sink& sink) {
  const std::vector<StateId> roots = initialRoots(psm);
  if (psm.stateCount() == 0 || roots.empty()) return;  // PSM-INIT-001 fired
  std::vector<bool> reachable(psm.stateCount(), false);
  std::vector<StateId> stack(roots);
  for (const StateId r : stack) reachable[static_cast<std::size_t>(r)] = true;
  while (!stack.empty()) {
    const StateId from = stack.back();
    stack.pop_back();
    for (const auto& t : psm.transitions()) {
      if (t.from != from) continue;
      if (t.to >= 0 && static_cast<std::size_t>(t.to) < reachable.size() &&
          !reachable[static_cast<std::size_t>(t.to)]) {
        reachable[static_cast<std::size_t>(t.to)] = true;
        stack.push_back(t.to);
      }
    }
  }
  std::vector<bool> has_out(psm.stateCount(), false);
  for (const auto& t : psm.transitions()) {
    if (t.from >= 0 && static_cast<std::size_t>(t.from) < has_out.size()) {
      has_out[static_cast<std::size_t>(t.from)] = true;
    }
  }
  for (const auto& s : psm.states()) {
    if (!reachable[static_cast<std::size_t>(s.id)]) {
      sink.emit("PSM-STATE-001", Severity::Error, atState(s.id),
                "state " + std::to_string(s.id) +
                    " is unreachable from every initial state",
                "dead weight at best, a broken join at worst: the "
                "simulator can never enter it, but its assertions still "
                "shape the HMM event set");
    } else if (!has_out[static_cast<std::size_t>(s.id)]) {
      sink.emit("PSM-STATE-002", Severity::Info, atState(s.id),
                "state " + std::to_string(s.id) +
                    " is a sink (no outgoing transitions)",
                "normal for the tail state of a mined chain; a stream "
                "that enters it can only leave by resync");
    }
  }
}

// --- transitions ----------------------------------------------------------

void checkTransitions(const core::Psm& psm,
                      const core::PropositionDomain& domain,
                      const LintOptions& options, Sink& sink) {
  const auto& ts = psm.transitions();

  // Row sums of the derived transition matrix. Multiplicity counts
  // normalize to 1 by construction, so a violation means the counts
  // themselves are degenerate (all zero) or overflowed the double sum.
  if (psm.stateCount() > 0) {
    const core::Hmm hmm(psm);
    std::vector<bool> has_out(psm.stateCount(), false);
    for (const auto& t : ts) {
      if (t.from >= 0 && static_cast<std::size_t>(t.from) < has_out.size()) {
        has_out[static_cast<std::size_t>(t.from)] = true;
      }
    }
    for (std::size_t i = 0; i < psm.stateCount(); ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < psm.stateCount(); ++j) {
        row += hmm.a(static_cast<StateId>(i), static_cast<StateId>(j));
      }
      const bool ok = has_out[i] ? std::abs(row - 1.0) <= options.epsilon
                                 : row == 0.0;
      if (!ok || !std::isfinite(row)) {
        sink.emit("PSM-TRANS-001", Severity::Error,
                  atState(static_cast<StateId>(i)),
                  "transition-probability row of state " +
                      std::to_string(i) + " sums to " + fmt(row) +
                      (has_out[i] ? " (expected 1 +/- " +
                                        fmt(options.epsilon) + ")"
                                  : " with no outgoing transitions"),
                  "the HMM transition matrix is not a stochastic matrix; "
                  "check the transition multiplicities");
      }
    }
  }

  for (std::size_t i = 0; i < ts.size(); ++i) {
    const auto& t = ts[i];
    if (t.count == 0) {
      sink.emit("PSM-TRANS-002", Severity::Error, atTransition(t.from, i),
                "transition " + std::to_string(i) + " (" +
                    std::to_string(t.from) + " -> " + std::to_string(t.to) +
                    ") has multiplicity 0",
                "a zero-count transition contributes nothing to the HMM "
                "but still widens successorsOn(); it should not exist");
    }
    if (t.enabling == kNoProp) {
      sink.emit("PSM-TRANS-005", Severity::Error, atTransition(t.from, i),
                "transition " + std::to_string(i) + " (" +
                    std::to_string(t.from) + " -> " + std::to_string(t.to) +
                    ") has no enabling proposition",
                "the simulator matches successors by enabling "
                "proposition; this edge can never fire");
    } else if (t.enabling < 0 ||
               static_cast<std::size_t>(t.enabling) >= domain.size()) {
      sink.emit("PSM-TRANS-006", Severity::Error, atTransition(t.from, i),
                "transition " + std::to_string(i) +
                    " enabling proposition " + std::to_string(t.enabling) +
                    " is outside the " + std::to_string(domain.size()) +
                    "-proposition domain",
                "dangling proposition id: the model and its domain are "
                "out of sync");
    }
  }

  // Duplicates and nondeterminism over the (from, enabling) structure.
  std::map<std::pair<StateId, PropId>, std::set<StateId>> by_edge;
  std::map<std::tuple<StateId, StateId, PropId>, std::size_t> folded;
  for (const auto& t : ts) {
    by_edge[{t.from, t.enabling}].insert(t.to);
    ++folded[{t.from, t.to, t.enabling}];
  }
  for (const auto& [key, n] : folded) {
    if (n < 2) continue;
    const auto& [from, to, enabling] = key;
    sink.emit("PSM-TRANS-004", Severity::Warn, atState(from),
              "transition " + std::to_string(from) + " -> " +
                  std::to_string(to) + " on proposition " +
                  std::to_string(enabling) + " appears " +
                  std::to_string(n) + " times instead of once with a "
                                      "multiplicity",
              "normalizeAssertions() folds duplicates; an unfolded model "
              "skews nothing today but defeats the multiset invariants");
  }
  for (const auto& [key, targets] : by_edge) {
    if (targets.size() < 2) continue;
    const auto& [from, enabling] = key;
    std::string list;
    for (const StateId to : targets) {
      if (!list.empty()) list += ", ";
      list += std::to_string(to);
    }
    sink.emit("PSM-TRANS-003", Severity::Info, atState(from),
              "state " + std::to_string(from) + " is nondeterministic on "
                  "proposition " + std::to_string(enabling) + " (targets " +
                  list + ")",
              "inherent to joined PSMs; resolved at simulation time by "
              "the HMM filter's most-probable-candidate rule");
  }
}

// --- power attributes -----------------------------------------------------

void checkPower(const core::Psm& psm, Sink& sink) {
  for (const auto& s : psm.states()) {
    const auto& p = s.power;
    if (!std::isfinite(p.mean)) {
      sink.emit("PSM-POWER-002", Severity::Error, atState(s.id),
                "state " + std::to_string(s.id) + " power mean is " +
                    fmt(p.mean),
                "a non-finite mu poisons every estimate emitted from "
                "this state");
    }
    if (p.stddev < 0.0 || !std::isfinite(p.stddev)) {
      sink.emit("PSM-POWER-001", Severity::Error, atState(s.id),
                "state " + std::to_string(s.id) + " power stddev is " +
                    fmt(p.stddev),
                "sigma must be finite and non-negative; the drift "
                "monitor divides by it");
    }
    if (p.n < 2) {
      sink.emit("PSM-POWER-003", Severity::Warn, atState(s.id),
                "state " + std::to_string(s.id) +
                    " power attribute is pooled from " +
                    std::to_string(p.n) + " sample" + (p.n == 1 ? "" : "s"),
                "<mu, sigma> over fewer than 2 samples has no spread "
                "information; merge tests against it are vacuous");
    }
    const double tol = 1e-9 * (1.0 + std::abs(p.mean));
    if (!std::isfinite(p.min_mean) || !std::isfinite(p.max_mean) ||
        p.min_mean > p.max_mean + tol || p.mean < p.min_mean - tol ||
        p.mean > p.max_mean + tol) {
      sink.emit("PSM-POWER-004", Severity::Warn, atState(s.id),
                "state " + std::to_string(s.id) + " mean " + fmt(p.mean) +
                    " is outside its recorded interval-mean range [" +
                    fmt(p.min_mean) + ", " + fmt(p.max_mean) + "]",
                "the range guards merges against transitive collapse; an "
                "inconsistent range means the attributes were edited "
                "after pooling");
    }
  }
}

// --- regression refinements -----------------------------------------------

void checkRegressions(const core::Psm& psm, Sink& sink) {
  for (const auto& s : psm.states()) {
    if (!s.regression) continue;
    const auto& r = *s.regression;
    if (!std::isfinite(r.intercept) || !std::isfinite(r.slope) ||
        !std::isfinite(r.pearson_r) || !std::isfinite(r.r_squared)) {
      sink.emit("PSM-REG-001", Severity::Error, atState(s.id),
                "state " + std::to_string(s.id) +
                    " regression has non-finite coefficients (intercept " +
                    fmt(r.intercept) + ", slope " + fmt(r.slope) +
                    ", r " + fmt(r.pearson_r) + ")",
                "omega(s) would emit NaN/Inf power; drop the refinement "
                "or re-train");
      continue;
    }
    if (r.slope == 0.0 || r.n < 3) {
      sink.emit("PSM-REG-002", Severity::Warn, atState(s.id),
                "state " + std::to_string(s.id) +
                    " regression is degenerate (slope " + fmt(r.slope) +
                    ", n " + std::to_string(r.n) + ")",
                "a flat or under-determined fit adds nothing over the "
                "constant mu; the refinement should have been rejected");
    }
  }
}

// --- temporal assertions --------------------------------------------------

void checkAssertions(const core::Psm& psm,
                     const core::PropositionDomain& domain, Sink& sink) {
  const auto validProp = [&](PropId id) {
    return id >= 0 && static_cast<std::size_t>(id) < domain.size();
  };
  for (const auto& s : psm.states()) {
    const auto& a = s.assertion;
    if (a.alts.empty()) {
      sink.emit("PSM-ASSERT-001", Severity::Error, atState(s.id),
                "state " + std::to_string(s.id) +
                    " has no assertion alternatives",
                "a state without a characterizing assertion can never be "
                "observed; the HMM emission row is empty");
    }
    if (!a.counts.empty() && a.counts.size() != a.alts.size()) {
      sink.emit("PSM-ASSERT-005", Severity::Error, atState(s.id),
                "state " + std::to_string(s.id) + " carries " +
                    std::to_string(a.counts.size()) +
                    " multiplicities for " + std::to_string(a.alts.size()) +
                    " alternatives",
                "counts must be empty (all 1) or parallel to alts; the "
                "B-matrix derivation indexes them together");
    } else {
      for (std::size_t i = 0; i < a.counts.size(); ++i) {
        if (a.counts[i] == 0) {
          sink.emit("PSM-ASSERT-005", Severity::Error, atAlt(s.id, i),
                    "state " + std::to_string(s.id) + " alternative " +
                        std::to_string(i) + " has multiplicity 0",
                    "a zero-multiplicity alternative is unobservable by "
                    "the HMM yet still matched by the simulator");
        }
      }
    }
    for (std::size_t i = 0; i < a.alts.size(); ++i) {
      const core::PatternSeq& seq = a.alts[i];
      if (seq.empty()) {
        sink.emit("PSM-ASSERT-002", Severity::Error, atAlt(s.id, i),
                  "state " + std::to_string(s.id) + " alternative " +
                      std::to_string(i) + " is an empty pattern sequence",
                  "every alternative needs at least one `p U q` / "
                  "`p X q` pattern");
        continue;
      }
      for (std::size_t k = 0; k < seq.size(); ++k) {
        const core::Pattern& pat = seq[k];
        const char* kind = pat.is_until ? "until" : "next";
        if (pat.p == kNoProp) {
          sink.emit("PSM-ASSERT-002", Severity::Error, atAlt(s.id, i),
                    "state " + std::to_string(s.id) + " alternative " +
                        std::to_string(i) + " pattern " + std::to_string(k) +
                        " (" + kind + ") has no entry proposition",
                    "`p` is mandatory for both pattern kinds");
        } else if (!validProp(pat.p)) {
          sink.emit("PSM-ASSERT-003", Severity::Error, atAlt(s.id, i),
                    "state " + std::to_string(s.id) + " alternative " +
                        std::to_string(i) + " pattern " + std::to_string(k) +
                        " entry proposition " + std::to_string(pat.p) +
                        " is outside the " + std::to_string(domain.size()) +
                        "-proposition domain",
                    "dangling proposition id: the model and its domain "
                    "are out of sync");
        }
        if (pat.q == kNoProp) {
          if (k + 1 < seq.size()) {
            sink.emit("PSM-ASSERT-002", Severity::Error, atAlt(s.id, i),
                      "state " + std::to_string(s.id) + " alternative " +
                          std::to_string(i) + " pattern " +
                          std::to_string(k) + " (" + kind +
                          ") is terminal (no exit proposition) but is not "
                          "the last pattern of its sequence",
                      "only the final pattern of an alternative may be "
                      "terminal (trace ended while the state was active)");
          }
        } else if (!validProp(pat.q)) {
          sink.emit("PSM-ASSERT-003", Severity::Error, atAlt(s.id, i),
                    "state " + std::to_string(s.id) + " alternative " +
                        std::to_string(i) + " pattern " + std::to_string(k) +
                        " exit proposition " + std::to_string(pat.q) +
                        " is outside the " + std::to_string(domain.size()) +
                        "-proposition domain",
                    "dangling proposition id: the model and its domain "
                    "are out of sync");
        }
        if (k + 1 < seq.size()) {
          const core::Pattern& next = seq[k + 1];
          if (pat.q != kNoProp && next.p != kNoProp && pat.q != next.p) {
            sink.emit("PSM-ASSERT-004", Severity::Warn, atAlt(s.id, i),
                      "state " + std::to_string(s.id) + " alternative " +
                          std::to_string(i) + " breaks sequence "
                          "continuity between patterns " +
                          std::to_string(k) + " and " +
                          std::to_string(k + 1) + " (exit " +
                          std::to_string(pat.q) + " != entry " +
                          std::to_string(next.p) + ")",
                      "simplify() concatenates so that pattern k's exit "
                      "proposition is pattern k+1's entry; a break means "
                      "the sequence was not produced by simplify");
          }
        }
      }
      for (std::size_t j = i + 1; j < a.alts.size(); ++j) {
        if (a.alts[j] == seq) {
          sink.emit("PSM-ASSERT-006", Severity::Warn, atAlt(s.id, j),
                    "state " + std::to_string(s.id) + " alternatives " +
                        std::to_string(i) + " and " + std::to_string(j) +
                        " are identical instead of one alternative with "
                        "multiplicity",
                    "normalizeAssertions() folds duplicates into counts; "
                    "run it (or fix the producer) before serializing");
          break;  // one finding per duplicated alternative
        }
      }
    }
  }
}

}  // namespace

void runModelChecks(const core::Psm& psm,
                    const core::PropositionDomain& domain,
                    const LintOptions& options, LintReport& report) {
  Sink sink(report);
  checkDomain(psm, domain, sink);
  checkInitials(psm, sink);
  checkReachability(psm, sink);
  checkTransitions(psm, domain, options, sink);
  checkPower(psm, sink);
  checkRegressions(psm, sink);
  checkAssertions(psm, domain, sink);
}

}  // namespace psmgen::analysis::detail
