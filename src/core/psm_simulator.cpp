#include "core/psm_simulator.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "trace/trace_io.hpp"

namespace psmgen::core {

PsmSimulator::PsmSimulator(const Psm& psm, const PropositionDomain& domain,
                           SimOptions options)
    : psm_(&psm), domain_(&domain), options_(options), hmm_(psm) {
  if (psm.stateCount() == 0) {
    throw std::invalid_argument("PsmSimulator: empty PSM");
  }
  // Default fallback: the most probable initial state, or state 0.
  double best = -1.0;
  for (const StateId s : psm.initialStates()) {
    if (hmm_.pi(s) > best) {
      best = hmm_.pi(s);
      default_state_ = s;
    }
  }
  if (default_state_ == kNoState) default_state_ = 0;
  for (const auto& v : domain.variables().all()) {
    widths_.push_back(v.width);
    is_input_.push_back(v.kind == trace::VarKind::Input ? 1 : 0);
  }
  // Hmm's constructor has checked every transition's endpoints.
  successors_.resize(psm.stateCount());
  for (const auto& s : psm.states()) all_states_.push_back(s.id);
  for (const auto& t : psm.transitions()) {
    auto& lists = successors_[static_cast<std::size_t>(t.from)];
    auto it = std::find_if(lists.begin(), lists.end(), [&](const auto& l) {
      return l.enabling == t.enabling;
    });
    if (it == lists.end()) {
      lists.push_back({t.enabling, {}});
      it = std::prev(lists.end());
    }
    if (std::find(it->targets.begin(), it->targets.end(), t.to) ==
        it->targets.end()) {
      it->targets.push_back(t.to);
    }
  }
}

const std::vector<StateId>& PsmSimulator::successors(StateId from,
                                                     PropId enabling) const {
  static const std::vector<StateId> kEmpty;
  for (const Successors& l : successors_[static_cast<std::size_t>(from)]) {
    if (l.enabling == enabling) return l.targets;
  }
  return kEmpty;
}

PsmSimulator::Session::Session(const PsmSimulator& sim)
    : sim_(&sim), filter_(sim.hmm_) {
  checkpoints_.reserve(kMaxCheckpoints);
  // Every checkpoint's buffer, plus the one being replayed.
  spare_buffers_.reserve(kMaxCheckpoints + 1);
}

void PsmSimulator::Session::checkRow(
    const std::vector<common::BitVector>& row) const {
  const std::vector<unsigned>& widths = sim_->widths_;
  if (row.size() != widths.size()) {
    throw std::invalid_argument(
        "PsmSimulator: a row of " + std::to_string(row.size()) +
        " values for a model of " + std::to_string(widths.size()) +
        " variables");
  }
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (row[k].width() != widths[k]) {
      throw std::invalid_argument(
          "PsmSimulator: variable '" + sim_->domain_->variables()[k].name +
          "' is declared " + std::to_string(widths[k]) +
          " bits wide, but the row's value has " +
          std::to_string(row[k].width()));
    }
  }
}

double PsmSimulator::Session::outputPower(
    const std::vector<common::BitVector>& row) const {
  const PowerState& state =
      sim_->psm_->state(cur_ != kNoState ? cur_ : sim_->default_state_);
  // Only a regression reads a Hamming distance: the one of its scope, to
  // the previous row (none before the first).
  unsigned hd = 0;
  if (state.regression && !prev_inputs_.empty()) {
    const bool inputs_only = state.regression_scope == HammingScope::Inputs;
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (inputs_only && !sim_->is_input_[k]) continue;
      hd += common::BitVector::hammingDistance(row[k], prev_inputs_[k]);
    }
  }
  return state.output(hd);
}

bool PsmSimulator::Session::matchConfigs(StateId s, PropId obs,
                                         bool entry_only,
                                         std::vector<Config>& out) const {
  out.clear();
  const auto& alts = sim_->psm_->state(s).assertion.alts;
  for (std::size_t a = 0; a < alts.size(); ++a) {
    const std::size_t limit = entry_only ? 1 : alts[a].size();
    for (std::size_t k = 0; k < limit && k < alts[a].size(); ++k) {
      if (alts[a][k].p == obs) {
        out.push_back({a, k});
        if (entry_only) break;
      }
    }
  }
  return !out.empty();
}

/// Ranks a candidate state for a non-deterministic choice. With the HMM:
/// the forward-filtering predictive mass into the state times the emission
/// probability of the best alternative the entry would select (b_j of the
/// observed assertion — previously the emission term was dropped entirely,
/// wasting the B matrix at exactly the decisions it exists for), with the
/// training population as an epsilon tie-break. Without the HMM: training
/// population alone (the frequency-ablation policy).
double PsmSimulator::Session::choiceScore(
    StateId s, const std::vector<Config>& configs) const {
  const PowerState& state = sim_->psm_->state(s);
  if (!sim_->options_.use_hmm) return static_cast<double>(state.power.n);
  double b_best = 0.0;
  for (const Config& c : configs) {
    b_best = std::max(b_best, sim_->hmm_.b(s, sim_->hmm_.eventAt(s, c.alt)));
  }
  return filter_.predictiveScore(s, kNoEvent) * b_best +
         1e-9 * static_cast<double>(state.power.n);
}

template <typename Admit>
StateId PsmSimulator::Session::pickBest(const std::vector<StateId>& candidates,
                                        PropId obs, bool entry_only,
                                        Admit admit, std::size_t& viable) {
  StateId best = kNoState;
  double best_score = -1.0;
  viable = 0;
  for (const StateId c : candidates) {
    if (!admit(c) || !matchConfigs(c, obs, entry_only, match_)) continue;
    ++viable;
    // A lone candidate wins whatever its score.
    const double score = candidates.size() > 1 ? choiceScore(c, match_) : 0.0;
    if (score > best_score) {
      best_score = score;
      best = c;
      best_match_.swap(match_);
    }
  }
  return best;
}

void PsmSimulator::Session::enterState(StateId s, std::vector<Config>& configs,
                                       bool was_choice, PropId enabling) {
  revert_from_ = cur_;
  cur_ = s;
  last_valid_ = s;
  entry_enabling_ = enabling;
  configs_.swap(configs);
  lost_ = false;
  entry_was_choice_ = was_choice;
  if (was_choice) ++row_.predictions;
  if (sim_->options_.use_hmm) {
    // Belief update with the (first) matched assertion as observation.
    filter_.step(sim_->hmm_.eventAt(s, configs_[0].alt));
    filter_.commit(s);
  }
}

void PsmSimulator::Session::tryRecognize(PropId obs) {
  if (obs == kNoProp) return;
  // Jump to the state that best explains the observation, anywhere in its
  // assertion set (paper: stay in the last valid state until a known
  // behaviour is finally recognised).
  std::size_t viable = 0;
  const StateId best = pickBest(
      sim_->all_states_, obs, /*entry_only=*/false,
      [](StateId) { return true; }, viable);
  if (best != kNoState) {
    // Recognition is not a transition: the entry carries no enabling
    // proposition, so a later violation in the recognized state can only
    // re-route through *its own* entry context, never a stale one. It is
    // not a *prediction* either — a resync guess recovers from behaviour
    // the model does not cover, and its failure is more of the same
    // unexpected behaviour, not a wrong successor choice (WSP measures
    // the HMM at non-deterministic transitions only).
    enterState(best, best_match_, /*was_choice=*/false,
               /*enabling=*/kNoProp);
  }
}

void PsmSimulator::Session::handleViolation(PropId obs) {
  lost_ = true;
  const StateId wrong_state = cur_;
  const bool was_choice = entry_was_choice_;
  const StateId from = revert_from_;
  const PropId enabling = entry_enabling_;
  // Revert to the last valid state. At the first mis-prediction of a
  // stream there is none: fall back to the desynchronized default (the
  // output uses default_state_) instead of staying in the wrong state.
  cur_ = last_valid_ = from;
  // Every violation is exactly one of the two failure kinds: a failed
  // non-deterministic choice (wrong prediction) or a deterministic path
  // the training traces never covered (unexpected behaviour).
  row_.flags |=
      was_choice ? RowVerdict::kWrongPrediction : RowVerdict::kUnexpected;
  if (sim_->options_.use_hmm && wrong_state != kNoState) {
    // Transiently suppress the failed branch so the repair below (and the
    // recognition that may follow) cannot immediately re-pick it; step()
    // lifts the penalty once the session advances cleanly again.
    if (from != kNoState) {
      filter_.penalize(from, wrong_state);
    } else {
      filter_.penalizeState(wrong_state);
    }
  }
  // Follow a different path from the last valid state: another target of
  // the same enabling function that accepts the current observation.
  if (from != kNoState && enabling != kNoProp) {
    std::size_t viable = 0;
    const StateId next = pickBest(
        sim_->successors(from, enabling), obs, /*entry_only=*/false,
        [&](StateId c) {
          return c != wrong_state &&
                 (!sim_->options_.use_hmm ||
                  filter_.predictiveScore(c, kNoEvent) > 0.0);
        },
        viable);
    if (next != kNoState) {
      enterState(next, best_match_, /*was_choice=*/viable > 1, enabling);
      return;
    }
  }
  // No alternative path: remain in the last valid state and wait for a
  // recognisable behaviour.
  tryRecognize(obs);
}

void PsmSimulator::Session::bufferObs(std::vector<Run>& buffer, PropId obs) {
  if (!buffer.empty() && buffer.back().p == obs &&
      buffer.back().count < std::numeric_limits<std::uint32_t>::max()) {
    ++buffer.back().count;
  } else {
    buffer.push_back({obs, 1});
  }
}

std::vector<PsmSimulator::Session::Run> PsmSimulator::Session::takeBuffer() {
  if (spare_buffers_.empty()) {
    // A buffer never outgrows the bound: step() drops a checkpoint as
    // soon as it holds one run more.
    std::vector<Run> buffer;
    buffer.reserve(kMaxBacktrackRuns + 1);
    return buffer;
  }
  std::vector<Run> buffer = std::move(spare_buffers_.back());
  spare_buffers_.pop_back();
  buffer.clear();
  return buffer;
}

void PsmSimulator::Session::recycle(std::vector<Run>&& buffer) {
  spare_buffers_.push_back(std::move(buffer));
}

void PsmSimulator::Session::dropOldestCheckpoint() {
  recycle(std::move(checkpoints_.front().buffer));
  checkpoints_.erase(checkpoints_.begin());
}

double PsmSimulator::Session::step(const std::vector<common::BitVector>& row) {
  checkRow(row);
  const bool was_lost = lost_;
  row_ = RowVerdict{};

  sim_->domain_->evalRow(row, row_sig_);
  const PropId obs = sim_->domain_->find(row_sig_);

  if (!started_) {
    started_ = true;
    if (obs != kNoProp) {
      // Choose the starting state among all initial states (Sec. V).
      std::vector<StateId> candidates;
      for (const StateId s : sim_->psm_->initialStates()) {
        if (matchConfigs(s, obs, /*entry_only=*/true, match_)) {
          candidates.push_back(s);
        }
      }
      if (candidates.empty()) {
        tryRecognize(obs);
      } else {
        const StateId pick = sim_->options_.use_hmm
                                 ? filter_.bestInitial(candidates, kNoEvent)
                                 : candidates.front();
        matchConfigs(pick, obs, /*entry_only=*/true, best_match_);
        enterState(pick, best_match_, /*was_choice=*/candidates.size() > 1,
                   /*enabling=*/kNoProp);
      }
    }
  } else if (lost_) {
    tryRecognize(obs);
  } else {
    for (auto& chk : checkpoints_) bufferObs(chk.buffer, obs);
    while (!checkpoints_.empty() &&
           checkpoints_.front().buffer.size() > kMaxBacktrackRuns) {
      dropOldestCheckpoint();
    }
    if (advanceCore(obs, /*allow_checkpoint=*/true) == Advance::Violation) {
      if (!tryBacktrack()) handleViolation(obs);
    } else if (filter_.hasPenalties()) {
      // A clean advance ends the mis-prediction repair: restore the
      // trained transition matrix (hmm.hpp "transient penalties").
      filter_.relax();
    }
  }
  // The single classification point: a row counts as lost iff its
  // processing ends desynchronized (so no path can count one row twice,
  // and a violation repaired within the row counts zero); a synced row
  // after a lost one is a resync once the stream had been synced before.
  if (lost_) {
    row_.flags |= RowVerdict::kLost;
  } else {
    row_.state = cur_;
    if (was_lost && ever_synced_) row_.flags |= RowVerdict::kResync;
    ever_synced_ = true;
  }
  counts_.add(row_);
  const double estimate = outputPower(row);
  prev_inputs_ = row;
  return estimate;
}

PsmSimulator::Session::Advance PsmSimulator::Session::advanceCore(
    PropId obs, bool allow_checkpoint) {
  // Advance every viable alternative of the current state's assertion.
  const auto& alts = sim_->psm_->state(cur_).assertion.alts;
  survivors_.clear();
  bool exit_requested = false;
  for (const Config& c : configs_) {
    const PatternSeq& seq = alts[c.alt];
    const Pattern& pat = seq[c.pos];
    if (pat.is_until && obs == pat.p) {
      survivors_.push_back(c);  // still inside the until run
      continue;
    }
    if (pat.q != kNoProp && obs == pat.q) {
      if (c.pos + 1 < seq.size()) {
        // The exit proposition opens the next pattern of the sequence
        // (its entry proposition by construction).
        survivors_.push_back({c.alt, c.pos + 1});
      } else {
        exit_requested = true;
      }
      continue;
    }
    // Alternative dies.
  }

  if (!survivors_.empty()) {
    // Alternatives that continue win over alternatives that exit, but the
    // forgone exit is checkpointed: if the surviving interpretation later
    // dies, tryBacktrack() revisits the exit and replays the buffered
    // observations through it (bounded NFA backtracking).
    if (allow_checkpoint && exit_requested &&
        !sim_->successors(cur_, obs).empty()) {
      if (checkpoints_.size() >= kMaxCheckpoints) dropOldestCheckpoint();
      checkpoints_.push_back({cur_, obs, takeBuffer()});
    }
    configs_.swap(survivors_);
    return Advance::Stayed;
  }

  if (!exit_requested && sim_->options_.generalize_exits &&
      !sim_->successors(cur_, obs).empty()) {
    // Generalized exit (documented extension): every alternative died, but
    // the state has a trained transition enabled by the observation — the
    // state's exit alphabet is the union of its alternatives' exits, so
    // an occupancy that was valid until now may leave through any of
    // them (e.g. an idle that outlived its next-pattern alternative and
    // then sees that alternative's exit proposition).
    exit_requested = true;
  }

  if (!exit_requested) return Advance::Violation;

  // Leave through the transition enabled by the observed proposition.
  std::size_t viable = 0;
  const StateId next = pickBest(
      sim_->successors(cur_, obs), obs, /*entry_only=*/true,
      [](StateId) { return true; }, viable);
  if (next == kNoState) return Advance::Violation;
  enterState(next, best_match_, /*was_choice=*/viable > 1, /*enabling=*/obs);
  return Advance::Exited;
}

bool PsmSimulator::Session::tryBacktrack() {
  while (!checkpoints_.empty()) {
    if (tryCheckpoint()) return true;
  }
  return false;
}

/// Attempts the newest checkpoint; pops it regardless of the outcome.
bool PsmSimulator::Session::tryCheckpoint() {
  Checkpoint chk = std::move(checkpoints_.back());
  checkpoints_.pop_back();

  const StateId from = chk.state;
  const PropId enabling = chk.enabling;
  const std::vector<Run>& buffer = chk.buffer;

  // Take the forgone exit at the checkpointed instant...
  std::vector<StateId>& viable = viable_;
  viable.clear();
  for (const StateId c : sim_->successors(from, enabling)) {
    if (matchConfigs(c, enabling, /*entry_only=*/true, match_)) {
      viable.push_back(c);
    }
  }
  // Order candidates by HMM preference but try them all: the revision is a
  // deterministic reinterpretation of already-seen behaviour, so whichever
  // candidate replays the buffered observations is the right one.
  if (sim_->options_.use_hmm) {
    const StateId best = filter_.bestAmong(viable, kNoEvent);
    for (std::size_t i = 0; i < viable.size(); ++i) {
      if (viable[i] == best) {
        std::swap(viable[0], viable[i]);
        break;
      }
    }
  }
  bool ok = false;
  // The replay below never reaches another tryCheckpoint(), so `viable`
  // stays as it is.
  for (const StateId pick : viable) {
    cur_ = from;
    matchConfigs(pick, enabling, /*entry_only=*/true, best_match_);
    enterState(pick, best_match_, /*was_choice=*/false, enabling);
    ok = true;
    // Conflicts during the replay may record checkpoints of their own;
    // those only see the remaining buffered observations (older
    // checkpoints already received them through step()).
    const std::size_t baseline = checkpoints_.size();
    for (const Run& run : buffer) {
      for (std::uint32_t r = 0; ok && r < run.count; ++r) {
        for (std::size_t j = baseline; j < checkpoints_.size(); ++j) {
          bufferObs(checkpoints_[j].buffer, run.p);
        }
        if (advanceCore(run.p, /*allow_checkpoint=*/true) ==
            Advance::Violation) {
          ok = false;
        }
      }
      if (!ok) break;
    }
    if (ok) break;
    // Drop checkpoints recorded under the failed interpretation.
    while (checkpoints_.size() > baseline) {
      recycle(std::move(checkpoints_.back().buffer));
      checkpoints_.pop_back();
    }
  }
  recycle(std::move(chk.buffer));
  return ok;
}

void PsmSimulator::checkVariables(const trace::VariableSet& vars) const {
  if (vars == domain_->variables()) return;
  throw std::invalid_argument(
      "PsmSimulator: the model declares '" +
      trace::formatVariableDeclaration(domain_->variables()) +
      "', but the trace declares '" + trace::formatVariableDeclaration(vars) +
      "'");
}

SimResult PsmSimulator::simulate(const trace::FunctionalTrace& trace) const {
  checkVariables(trace.variables());
  obs::Span span("sim.simulate", "sim");
  Session session = startSession();
  SimResult result;
  result.estimate.reserve(trace.length());
  std::vector<common::BitVector> row;
  for (std::size_t t = 0; t < trace.length(); ++t) {
    trace.readRow(t, row);
    result.estimate.push_back(session.step(row));
  }
  static_cast<PredictionCounts&>(result) = session.counts();

  obs::Registry& reg = obs::metrics();
  reg.counter("sim.instants").add(result.estimate.size());
  reg.counter("sim.predictions").add(result.predictions);
  reg.counter("sim.wrong_predictions").add(result.wrong_predictions);
  reg.counter("sim.unexpected_behaviours").add(result.unexpected_behaviours);
  reg.counter("sim.lost_instants").add(result.lost_instants);
  reg.gauge("sim.wsp_percent").set(result.wspPercent());
  obs::debug("sim.simulated", {{"instants", result.estimate.size()},
                               {"predictions", result.predictions},
                               {"wrong", result.wrong_predictions},
                               {"unexpected", result.unexpected_behaviours},
                               {"lost", result.lost_instants},
                               {"wsp_percent", result.wspPercent()}});
  return result;
}

}  // namespace psmgen::core
