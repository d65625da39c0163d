#include "core/hmm.hpp"

#include <algorithm>
#include <stdexcept>

namespace psmgen::core {

Hmm::Hmm(const Psm& psm) : n_(psm.stateCount()) {
  a_.assign(n_ * n_, 0.0);
  pi_.assign(n_, 0.0);

  // A: transition multiplicities, row-normalized.
  for (const auto& t : psm.transitions()) {
    if (t.from < 0 || static_cast<std::size_t>(t.from) >= n_ || t.to < 0 ||
        static_cast<std::size_t>(t.to) >= n_) {
      throw std::invalid_argument(
          "Hmm: a transition references a state outside the PSM");
    }
    a_[index(t.from, t.to)] += static_cast<double>(t.count);
  }
  for (std::size_t i = 0; i < n_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n_; ++j) row += a_[i * n_ + j];
    if (row > 0.0) {
      for (std::size_t j = 0; j < n_; ++j) a_[i * n_ + j] /= row;
    }
  }

  // Events, in order of first appearance, and the event of every
  // alternative.
  alt_begin_.reserve(n_ + 1);
  for (const auto& s : psm.states()) {
    alt_begin_.push_back(alt_events_.size());
    for (const PatternSeq& seq : s.assertion.alts) {
      EventId e = eventOf(seq);
      if (e == kNoEvent) {
        e = static_cast<EventId>(events_.size());
        events_.push_back(seq);
      }
      alt_events_.push_back(e);
    }
  }
  alt_begin_.push_back(alt_events_.size());

  // B: multiplicity of each assertion within each state, row-normalized.
  const std::size_t m = events_.size();
  b_.assign(n_ * m, 0.0);
  for (const auto& s : psm.states()) {
    const std::size_t j = static_cast<std::size_t>(s.id);
    for (std::size_t alt = 0; alt < s.assertion.alts.size(); ++alt) {
      b_[j * m + static_cast<std::size_t>(eventAt(s.id, alt))] +=
          static_cast<double>(s.assertion.countOf(alt));
    }
  }
  for (std::size_t j = 0; j < n_; ++j) {
    double sum = 0.0;
    for (std::size_t e = 0; e < m; ++e) sum += b_[j * m + e];
    if (sum > 0.0) {
      for (std::size_t e = 0; e < m; ++e) b_[j * m + e] /= sum;
    }
  }

  // pi: number of traces whose PSM starts in each state.
  double total = 0.0;
  for (const auto& s : psm.states()) {
    pi_[static_cast<std::size_t>(s.id)] = static_cast<double>(s.initial_count);
    total += static_cast<double>(s.initial_count);
  }
  if (total > 0.0) {
    for (auto& p : pi_) p /= total;
  } else if (n_ > 0) {
    std::fill(pi_.begin(), pi_.end(), 1.0 / static_cast<double>(n_));
  }
}

EventId Hmm::eventOf(const PatternSeq& seq) const {
  for (std::size_t k = 0; k < events_.size(); ++k) {
    if (events_[k] == seq) return static_cast<EventId>(k);
  }
  return kNoEvent;
}

double Hmm::b(StateId j, EventId e) const {
  if (e < 0 || static_cast<std::size_t>(e) >= events_.size()) return 0.0;
  return b_.at(static_cast<std::size_t>(j) * events_.size() +
               static_cast<std::size_t>(e));
}

Hmm::Filter::Filter(const Hmm& hmm) : hmm_(&hmm) { reset(); }

void Hmm::Filter::reset() {
  belief_ = hmm_->pi_;
  next_.assign(hmm_->n_, 0.0);
  a_penalized_ = hmm_->a_;
  penalized_.clear();
  pi_overlay_.clear();
  pi_penalized_ = false;
}

void Hmm::Filter::step(EventId event) {
  const std::size_t n = hmm_->n_;
  for (std::size_t j = 0; j < n; ++j) {
    double pred = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      pred += belief_[i] * a_penalized_[i * n + j];
    }
    next_[j] = pred * hmm_->b(static_cast<StateId>(j), event);
  }
  double sum = 0.0;
  for (const double v : next_) sum += v;
  if (sum > 0.0) {
    for (auto& v : next_) v /= sum;
    belief_.swap(next_);
  } else {
    // The observation is impossible under the model: fall back to the
    // observation likelihood alone (resynchronization prior).
    double bsum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      next_[j] = hmm_->b(static_cast<StateId>(j), event);
      bsum += next_[j];
    }
    if (bsum > 0.0) {
      for (auto& v : next_) v /= bsum;
      belief_.swap(next_);
    }
    // Otherwise keep the previous belief (event unknown everywhere).
  }
}

void Hmm::Filter::commit(StateId s) {
  // Blend a point mass at the committed state with the filtered belief so
  // alternative hypotheses survive for later resynchronizations.
  constexpr double kCommitWeight = 0.8;
  for (std::size_t j = 0; j < belief_.size(); ++j) {
    belief_[j] *= (1.0 - kCommitWeight);
  }
  belief_[static_cast<std::size_t>(s)] += kCommitWeight;
}

double Hmm::Filter::predictiveScore(StateId j, EventId event) const {
  const std::size_t n = hmm_->n_;
  double pred = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pred += belief_[i] * a_penalized_[i * n + static_cast<std::size_t>(j)];
  }
  const double obs = event == kNoEvent ? 1.0 : hmm_->b(j, event);
  return pred * obs;
}

StateId Hmm::Filter::bestAmong(const std::vector<StateId>& candidates,
                               EventId event) const {
  StateId best = kNoState;
  double best_score = -1.0;
  for (const StateId c : candidates) {
    const double score = predictiveScore(c, event);
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

StateId Hmm::Filter::bestInitial(const std::vector<StateId>& candidates,
                                 EventId event) const {
  StateId best = kNoState;
  double best_score = -1.0;
  const std::vector<double>& pi = pi_penalized_ ? pi_overlay_ : hmm_->pi_;
  for (const StateId c : candidates) {
    const double obs = event == kNoEvent ? 1.0 : hmm_->b(c, event);
    const double score = pi.at(static_cast<std::size_t>(c)) * obs;
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

void Hmm::Filter::penalize(StateId i, StateId j) {
  const std::size_t n = hmm_->n_;
  const std::size_t idx =
      static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j);
  if (a_penalized_[idx] != 0.0) {
    a_penalized_[idx] = 0.0;
    penalized_.push_back(idx);
  }
}

void Hmm::Filter::penalizeState(StateId j) {
  const std::size_t idx = static_cast<std::size_t>(j);
  if (pi_overlay_.empty()) pi_overlay_ = hmm_->pi_;
  pi_overlay_[idx] = 0.0;
  pi_penalized_ = true;
  // Suppress the wrong state in the belief too; if that leaves nothing
  // (the belief had collapsed onto j), restart from the suppressed prior.
  belief_[idx] = 0.0;
  double sum = 0.0;
  for (const double v : belief_) sum += v;
  if (sum > 0.0) {
    for (auto& v : belief_) v /= sum;
    return;
  }
  belief_ = pi_overlay_;
  sum = 0.0;
  for (const double v : belief_) sum += v;
  if (sum > 0.0) {
    for (auto& v : belief_) v /= sum;
  } else if (!belief_.empty()) {
    std::fill(belief_.begin(), belief_.end(),
              1.0 / static_cast<double>(belief_.size()));
  }
}

void Hmm::Filter::relax() {
  for (const std::size_t idx : penalized_) {
    a_penalized_[idx] = hmm_->a_[idx];
  }
  penalized_.clear();
  pi_overlay_.clear();
  pi_penalized_ = false;
}

}  // namespace psmgen::core
