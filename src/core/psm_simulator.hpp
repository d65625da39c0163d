#pragma once
// Simulation of the (combined, possibly non-deterministic) PSM set
// concurrently with a functional trace (paper Secs. III-C and V).
//
// Per instant the simulator evaluates the proposition holding on the
// IP's PIs/POs, advances the temporal-assertion engine of the current
// power state, and emits the state's power output (constant mu or the
// regression function of the input Hamming distance).
//
// Within a state the engine tracks *all* viable alternatives
// simultaneously (subset construction over the state's {seq || seq}
// assertion set): an alternative dies when its expected pattern is not
// satisfied. When the assertion set completes, the state is left through
// the transition whose enabling function equals the observed exit
// proposition; if several transitions qualify (non-determinism from the
// join), the HMM filter predicts the most probable target, weighting
// each candidate by the emission probability of the alternative it would
// enter through (b_j of the forward-filtering recurrence) on top of the
// belief-propagated transition mass. When every alternative dies the
// simulator reverts to the last valid state, transiently fixes the
// offending transition probability to 0 (Hmm::Filter::penalize — lifted
// again once the session advances cleanly, see hmm.hpp) and tries a
// different path; if no path accepts the observation it stays in the
// last valid state — emitting its (unreliable) power — until a known
// behaviour is recognised again.
//
// Row verdicts (DESIGN.md "Prediction accounting"). Session::step()
// classifies its row exactly once, into a RowVerdict; every layer above
// the session (OnlinePredictor, QualityMonitor, the serve wire flags)
// reads that verdict instead of re-deriving it, and PredictionCounts is
// the one counter type that sums verdicts:
//   - predictions: non-deterministic choices the filter resolved (entry
//     among >1 viable successors, initial choice among >1 matching
//     initial states, re-route among >1 surviving alternatives). A
//     resynchronization guess is *not* a prediction: it recovers from
//     behaviour the model does not cover, so its failure says nothing
//     about the filter's choice quality. A checkpoint replay can resolve
//     several choices in one row, so a verdict carries a count.
//   - wrong_predictions: a *prediction* later invalidated — the entered
//     state's assertion died while the entry had been a choice. A
//     violation on a deterministic path is never a wrong prediction, so
//     wrong_predictions <= predictions and WSP% = 100 * wrong /
//     predictions is bounded by 100.
//   - unexpected_behaviours: assertion violations whose entry was *not* a
//     choice — behaviour absent from the training traces (the paper's
//     "unexpected behaviour"). Every violation increments exactly one of
//     wrong_predictions / unexpected_behaviours, and a row holds at most
//     one violation.
//   - lost_instants: rows whose processing *ends* with the session
//     desynchronized, so a row can never be counted lost twice.
//   - resyncs: rows that end synced after a lost row, once the stream
//     had been synced before (the first recognition is not a resync).
//
// The Session object exposes a streaming per-cycle API so the SystemC-lite
// PSM module can co-simulate with the IP model (Table III).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hmm.hpp"
#include "core/proposition.hpp"
#include "core/psm.hpp"
#include "trace/functional_trace.hpp"

namespace psmgen::core {

struct SimOptions {
  /// Use the HMM filter for non-deterministic choices and resync; when
  /// false, ties break on training frequency only (ablation knob).
  bool use_hmm = true;
  /// When every alternative of the current state dies but a trained
  /// transition of the state is enabled by the observation, leave through
  /// it instead of declaring a violation (the state's exit alphabet is
  /// the union of its alternatives' exits). Documented extension; turn
  /// off to get the paper's strict per-alternative semantics.
  bool generalize_exits = true;
};

/// What one Session::step() decided about its row.
struct RowVerdict {
  /// `flags` bits. They equal the serve wire's EstRow flags, which copy
  /// the byte verbatim (pinned by a static_assert in serve/session.cpp).
  static constexpr std::uint8_t kLost = 0x1;
  static constexpr std::uint8_t kWrongPrediction = 0x2;
  static constexpr std::uint8_t kUnexpected = 0x4;
  static constexpr std::uint8_t kResync = 0x8;

  /// The state the row ended in; kNoState while the session is lost.
  StateId state = kNoState;
  /// Non-deterministic choices the filter resolved in this row.
  std::uint32_t predictions = 0;
  /// At most one of kWrongPrediction and kUnexpected is set.
  std::uint8_t flags = 0;

  bool has(std::uint8_t flag) const { return (flags & flag) != 0; }
};

/// Sums of row verdicts: the one counter type of the prediction layers
/// (SimResult, runtime::PredictorStats, runtime::QualityWindow).
struct PredictionCounts {
  std::size_t rows = 0;
  std::size_t predictions = 0;
  std::size_t wrong_predictions = 0;
  std::size_t unexpected_behaviours = 0;
  std::size_t lost_instants = 0;
  std::size_t resyncs = 0;

  bool operator==(const PredictionCounts&) const = default;

  void add(const RowVerdict& row) {
    ++rows;
    predictions += row.predictions;
    wrong_predictions += row.has(RowVerdict::kWrongPrediction) ? 1 : 0;
    unexpected_behaviours += row.has(RowVerdict::kUnexpected) ? 1 : 0;
    lost_instants += row.has(RowVerdict::kLost) ? 1 : 0;
    resyncs += row.has(RowVerdict::kResync) ? 1 : 0;
  }
  /// Undoes add(row) (a sliding window evicting its oldest row).
  void remove(const RowVerdict& row) {
    --rows;
    predictions -= row.predictions;
    wrong_predictions -= row.has(RowVerdict::kWrongPrediction) ? 1 : 0;
    unexpected_behaviours -= row.has(RowVerdict::kUnexpected) ? 1 : 0;
    lost_instants -= row.has(RowVerdict::kLost) ? 1 : 0;
    resyncs -= row.has(RowVerdict::kResync) ? 1 : 0;
  }

  /// Wrong-state-prediction percentage (Table III "WSP"): wrong
  /// predictions over resolved predictions, in [0, 100].
  double wspPercent() const {
    return predictions == 0
               ? 0.0
               : 100.0 * static_cast<double>(wrong_predictions) /
                     static_cast<double>(predictions);
  }
  double lostPercent() const {
    return rows == 0 ? 0.0
                     : 100.0 * static_cast<double>(lost_instants) /
                           static_cast<double>(rows);
  }
  double resyncsPerKiloRow() const {
    return rows == 0 ? 0.0
                     : 1000.0 * static_cast<double>(resyncs) /
                           static_cast<double>(rows);
  }
};

struct SimResult : PredictionCounts {
  std::vector<double> estimate;  ///< per-instant power estimate
};

class PsmSimulator {
 public:
  PsmSimulator(const Psm& psm, const PropositionDomain& domain,
               SimOptions options = {});

  /// Streaming per-cycle evaluation.
  class Session {
   public:
    /// Consumes the next row (one value per trace variable, inputs first)
    /// and returns the power estimate for that instant; lastRow() holds
    /// the row's verdict afterwards. Throws std::invalid_argument, with
    /// the session unchanged, when the row's arity or a value's width
    /// differs from the variable set's declaration. Once warm, a step
    /// allocates nothing.
    double step(const std::vector<common::BitVector>& row);

    /// The verdict of the latest step().
    const RowVerdict& lastRow() const { return row_; }
    /// The sum of every verdict since the session started.
    const PredictionCounts& counts() const { return counts_; }
    StateId currentState() const { return cur_; }
    bool isLost() const { return lost_; }

   private:
    friend class PsmSimulator;
    explicit Session(const PsmSimulator& sim);

    struct Config {
      std::size_t alt = 0;
      std::size_t pos = 0;
    };

    enum class Advance { Stayed, Exited, Violation };
    /// Bound on *runs* of identical buffered observations per checkpoint.
    /// Power traces dwell in long same-proposition runs (idle/busy
    /// stretches), which until patterns absorb whole; bounding runs
    /// instead of raw rows keeps a checkpoint alive across arbitrarily
    /// long dwells with bounded memory. (Bounding raw rows silently
    /// dropped the only correct reinterpretation on every dwell longer
    /// than the cap — the root cause of the RAM WSP blow-up.)
    static constexpr std::size_t kMaxBacktrackRuns = 64;

    /// Throws std::invalid_argument unless `row` holds one value of the
    /// declared width per trace variable.
    void checkRow(const std::vector<common::BitVector>& row) const;
    double outputPower(const std::vector<common::BitVector>& row) const;
    /// Makes `s` the current state, with `configs` (its matching
    /// configurations, swapped out) as its live alternatives.
    void enterState(StateId s, std::vector<Config>& configs, bool was_choice,
                    PropId enabling);
    Advance advanceCore(PropId obs, bool allow_checkpoint);
    bool tryBacktrack();
    bool tryCheckpoint();
    void handleViolation(PropId obs);
    void tryRecognize(PropId obs);
    /// Writes into `out` the configurations of `s` that accept `obs`;
    /// returns whether there are any.
    bool matchConfigs(StateId s, PropId obs, bool entry_only,
                      std::vector<Config>& out) const;
    double choiceScore(StateId s, const std::vector<Config>& configs) const;
    /// Among the `candidates` that `admit` accepts and that match `obs`,
    /// the one choiceScore() ranks first (the earliest on a tie), with its
    /// configurations in best_match_; kNoState if none matches. `viable`
    /// counts the matching candidates.
    template <typename Admit>
    StateId pickBest(const std::vector<StateId>& candidates, PropId obs,
                     bool entry_only, Admit admit, std::size_t& viable);

    const PsmSimulator* sim_;
    Hmm::Filter filter_;
    bool started_ = false;
    bool lost_ = true;
    StateId cur_ = kNoState;
    StateId last_valid_ = kNoState;
    StateId revert_from_ = kNoState;  ///< state we entered cur_ from
    PropId entry_enabling_ = kNoProp;
    /// The entry into cur_ was a non-deterministic HMM choice.
    bool entry_was_choice_ = false;
    std::vector<Config> configs_;
    /// A forgone exit (survivors were preferred) that violation handling
    /// may revisit; buffer holds the observations seen since,
    /// run-length-encoded (power traces dwell, so runs are the natural
    /// unit). A small stack of checkpoints handles nested ambiguities,
    /// newest first.
    struct Run {
      PropId p = kNoProp;
      std::uint32_t count = 0;
    };
    struct Checkpoint {
      StateId state = kNoState;
      PropId enabling = kNoProp;
      std::vector<Run> buffer;
    };
    static void bufferObs(std::vector<Run>& buffer, PropId obs);
    /// Checkpoint buffers come from, and return to, spare_buffers_.
    std::vector<Run> takeBuffer();
    void recycle(std::vector<Run>&& buffer);
    void dropOldestCheckpoint();
    static constexpr std::size_t kMaxCheckpoints = 4;
    std::vector<Checkpoint> checkpoints_;
    std::vector<std::vector<Run>> spare_buffers_;
    /// The previous row, for the Hamming distance of a regression output.
    std::vector<common::BitVector> prev_inputs_;
    /// Per-row scratch, reused so that no step() allocates once warm: the
    /// row's signature, the alternatives that survive advanceCore(), the
    /// configurations of the candidate being matched and of the best one
    /// so far, and the viable candidates of a checkpoint replay.
    common::BitVector row_sig_;
    std::vector<Config> survivors_;
    std::vector<Config> match_;
    std::vector<Config> best_match_;
    std::vector<StateId> viable_;
    /// Some row has ended synced (a later recovery is a resync).
    bool ever_synced_ = false;
    RowVerdict row_;
    PredictionCounts counts_;
  };

  Session startSession() const { return Session(*this); }

  /// Throws std::invalid_argument, naming both declarations, unless `vars`
  /// is the model's variable set: the same names, kinds and widths in the
  /// same order. A row only carries values, so a trace that declares the
  /// model's variables in another order would be scored without an error.
  void checkVariables(const trace::VariableSet& vars) const;

  /// Batch simulation of a whole functional trace; checkVariables() first.
  SimResult simulate(const trace::FunctionalTrace& trace) const;

  const Psm& psm() const { return *psm_; }
  const Hmm& hmm() const { return hmm_; }
  const PropositionDomain& domain() const { return *domain_; }

 private:
  /// The distinct targets of `from`'s transitions on `enabling`, in
  /// order of first appearance.
  const std::vector<StateId>& successors(StateId from, PropId enabling) const;

  const Psm* psm_;
  const PropositionDomain* domain_;
  SimOptions options_;
  Hmm hmm_;
  /// Fallback state while desynchronized before any state was entered.
  StateId default_state_ = kNoState;
  /// Per trace variable: its declared width, and whether it is a primary
  /// input (for the input-HD scope).
  std::vector<unsigned> widths_;
  std::vector<char> is_input_;
  /// Every state id, ascending: the candidates of a recognition.
  std::vector<StateId> all_states_;
  /// Per state, one successor list per enabling proposition of its
  /// transitions; built once so the per-cycle hot path neither scans the
  /// transition list nor hashes.
  struct Successors {
    PropId enabling = kNoProp;
    std::vector<StateId> targets;
  };
  std::vector<std::vector<Successors>> successors_;
};

}  // namespace psmgen::core
