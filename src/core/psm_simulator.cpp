#include "core/psm_simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

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
    is_input_.push_back(v.kind == trace::VarKind::Input ? 1 : 0);
  }
  for (const auto& t : psm.transitions()) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.from)) << 32) |
        static_cast<std::uint32_t>(t.enabling);
    auto& targets = adjacency_[key];
    if (std::find(targets.begin(), targets.end(), t.to) == targets.end()) {
      targets.push_back(t.to);
    }
  }
}

const std::vector<StateId>& PsmSimulator::successors(StateId from,
                                                     PropId enabling) const {
  static const std::vector<StateId> kEmpty;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
      static_cast<std::uint32_t>(enabling);
  const auto it = adjacency_.find(key);
  return it == adjacency_.end() ? kEmpty : it->second;
}

PsmSimulator::Session::Session(const PsmSimulator& sim)
    : sim_(&sim), filter_(sim.hmm_) {}

double PsmSimulator::Session::outputPower(unsigned hd_in,
                                          unsigned hd_io) const {
  const StateId s = cur_ != kNoState ? cur_ : sim_->default_state_;
  return sim_->psm_->state(s).output(hd_in, hd_io);
}

std::vector<PsmSimulator::Session::Config>
PsmSimulator::Session::matchingConfigs(StateId s, PropId obs,
                                       bool entry_only) const {
  std::vector<Config> out;
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
  return out;
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
    const EventId e = sim_->hmm_.eventOf(state.assertion.alts[c.alt]);
    b_best = std::max(b_best, sim_->hmm_.b(s, e));
  }
  return filter_.predictiveScore(s, kNoEvent) * b_best +
         1e-9 * static_cast<double>(state.power.n);
}

bool PsmSimulator::Session::enterState(StateId s, PropId obs, bool entry_only,
                                       bool was_choice, PropId enabling) {
  std::vector<Config> configs = matchingConfigs(s, obs, entry_only);
  if (configs.empty()) return false;
  revert_from_ = cur_;
  cur_ = s;
  last_valid_ = s;
  entry_enabling_ = enabling;
  configs_ = std::move(configs);
  lost_ = false;
  entry_was_choice_ = was_choice;
  if (was_choice) ++row_.predictions;
  if (sim_->options_.use_hmm) {
    // Belief update with the (first) matched assertion as observation.
    const EventId e =
        sim_->hmm_.eventOf(sim_->psm_->state(s).assertion.alts[configs_[0].alt]);
    filter_.step(e);
    filter_.commit(s);
  }
  return true;
}

void PsmSimulator::Session::tryRecognize(PropId obs) {
  if (obs == kNoProp) return;
  // Jump to the state that best explains the observation, anywhere in its
  // assertion set (paper: stay in the last valid state until a known
  // behaviour is finally recognised).
  StateId best = kNoState;
  std::vector<Config> best_configs;
  double best_score = -1.0;
  for (const auto& s : sim_->psm_->states()) {
    std::vector<Config> configs =
        matchingConfigs(s.id, obs, /*entry_only=*/false);
    if (configs.empty()) continue;
    const double score = choiceScore(s.id, configs);
    if (score > best_score) {
      best_score = score;
      best = s.id;
      best_configs = std::move(configs);
    }
  }
  if (best != kNoState) {
    // Recognition is not a transition: the entry carries no enabling
    // proposition, so a later violation in the recognized state can only
    // re-route through *its own* entry context, never a stale one. It is
    // not a *prediction* either — a resync guess recovers from behaviour
    // the model does not cover, and its failure is more of the same
    // unexpected behaviour, not a wrong successor choice (WSP measures
    // the HMM at non-deterministic transitions only).
    enterState(best, obs, /*entry_only=*/false, /*was_choice=*/false,
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
    std::vector<StateId> viable;
    std::vector<std::vector<Config>> viable_configs;
    for (const StateId c : sim_->successors(from, enabling)) {
      if (c == wrong_state) continue;
      if (sim_->options_.use_hmm &&
          filter_.predictiveScore(c, kNoEvent) <= 0.0) {
        continue;
      }
      std::vector<Config> configs =
          matchingConfigs(c, obs, /*entry_only=*/false);
      if (configs.empty()) continue;
      viable.push_back(c);
      viable_configs.push_back(std::move(configs));
    }
    if (!viable.empty()) {
      std::size_t best = 0;
      double best_score = -1.0;
      for (std::size_t i = 0; i < viable.size(); ++i) {
        const double score = choiceScore(viable[i], viable_configs[i]);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      if (enterState(viable[best], obs, /*entry_only=*/false,
                     /*was_choice=*/viable.size() > 1, enabling)) {
        return;
      }
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

double PsmSimulator::Session::step(const std::vector<common::BitVector>& row) {
  // Input and interface Hamming distances for the regression output
  // functions.
  unsigned hd_in = 0;
  unsigned hd_io = 0;
  if (!prev_inputs_.empty()) {
    for (std::size_t k = 0; k < row.size(); ++k) {
      const unsigned d = common::BitVector::hammingDistance(row[k], prev_inputs_[k]);
      hd_io += d;
      if (sim_->is_input_[k]) hd_in += d;
    }
  }
  prev_inputs_ = row;
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
        if (!matchingConfigs(s, obs, /*entry_only=*/true).empty()) {
          candidates.push_back(s);
        }
      }
      StateId pick = kNoState;
      if (!candidates.empty()) {
        pick = sim_->options_.use_hmm
                   ? filter_.bestInitial(candidates, kNoEvent)
                   : candidates.front();
      }
      if (pick == kNoState ||
          !enterState(pick, obs, /*entry_only=*/true,
                      /*was_choice=*/candidates.size() > 1,
                      /*enabling=*/kNoProp)) {
        tryRecognize(obs);
      }
    }
  } else if (lost_) {
    tryRecognize(obs);
  } else {
    for (auto& chk : checkpoints_) bufferObs(chk.buffer, obs);
    while (!checkpoints_.empty() &&
           checkpoints_.front().buffer.size() > kMaxBacktrackRuns) {
      checkpoints_.erase(checkpoints_.begin());
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
  return outputPower(hd_in, hd_io);
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
      if (checkpoints_.size() >= kMaxCheckpoints) {
        checkpoints_.erase(checkpoints_.begin());
      }
      checkpoints_.push_back({cur_, obs, {}});
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
  const std::vector<StateId>& candidates = sim_->successors(cur_, obs);
  std::vector<StateId> viable;
  std::vector<std::vector<Config>> viable_configs;
  for (const StateId c : candidates) {
    std::vector<Config> configs = matchingConfigs(c, obs, /*entry_only=*/true);
    if (configs.empty()) continue;
    viable.push_back(c);
    viable_configs.push_back(std::move(configs));
  }
  if (!viable.empty()) {
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < viable.size(); ++i) {
      const double score = choiceScore(viable[i], viable_configs[i]);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (enterState(viable[best], obs, /*entry_only=*/true,
                   /*was_choice=*/viable.size() > 1, /*enabling=*/obs)) {
      return Advance::Exited;
    }
  }
  return Advance::Violation;
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
  const std::vector<StateId>& candidates = sim_->successors(from, enabling);
  std::vector<StateId> viable;
  for (const StateId c : candidates) {
    if (!matchingConfigs(c, enabling, /*entry_only=*/true).empty()) {
      viable.push_back(c);
    }
  }
  if (viable.empty()) return false;
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
  for (const StateId pick : viable) {
    cur_ = from;
    if (!enterState(pick, enabling, /*entry_only=*/true,
                    /*was_choice=*/false, enabling)) {
      continue;
    }
    bool ok = true;
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
    if (ok) return true;
    // Drop checkpoints recorded under the failed interpretation.
    checkpoints_.resize(std::min(checkpoints_.size(), baseline));
  }
  return false;
}

SimResult PsmSimulator::simulate(const trace::FunctionalTrace& trace) const {
  obs::Span span("sim.simulate", "sim");
  Session session = startSession();
  SimResult result;
  result.estimate.reserve(trace.length());
  for (std::size_t t = 0; t < trace.length(); ++t) {
    result.estimate.push_back(session.step(trace.step(t)));
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
