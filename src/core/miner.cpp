#include "core/miner.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"

namespace psmgen::core {

namespace {

std::size_t totalLength(
    const std::vector<const trace::FunctionalTrace*>& traces) {
  std::size_t n = 0;
  for (const auto* t : traces) n += t->length();
  return n;
}

void checkTraces(const std::vector<const trace::FunctionalTrace*>& traces) {
  if (traces.empty()) {
    throw std::invalid_argument("AssertionMiner: no training traces");
  }
  for (const auto* t : traces) {
    if (t == nullptr || t->empty()) {
      throw std::invalid_argument("AssertionMiner: null or empty trace");
    }
    if (!(t->variables() == traces.front()->variables())) {
      throw std::invalid_argument(
          "AssertionMiner: traces have different variable sets");
    }
  }
}

/// Support / toggle / run-structure counters of one candidate atom over
/// the whole training set. Each atom's scan is independent, so the
/// statistics pass parallelizes per atom into pre-sized slots.
struct AtomStats {
  std::size_t hold = 0;
  std::size_t toggles = 0;
  // Per-polarity run statistics: [polarity].
  std::array<std::size_t, 2> runs{{0, 0}};
  std::array<std::size_t, 2> singleton_runs{{0, 0}};
};

AtomStats scanAtom(const AtomicProposition& atom,
                   const std::vector<const trace::FunctionalTrace*>& traces) {
  AtomStats s;
  char prev_truth = 0;
  std::size_t run_len = 0;
  for (const auto* t : traces) {
    for (std::size_t i = 0; i < t->length(); ++i) {
      const char truth = atom.eval(t->step(i)) ? 1 : 0;
      s.hold += static_cast<std::size_t>(truth);
      const bool boundary = (i == 0);
      if (boundary || truth != prev_truth) {
        // Close the previous run (toggle counting restarts per trace).
        if (!boundary) ++s.toggles;
        if (run_len > 0) {
          ++s.runs[static_cast<std::size_t>(prev_truth)];
          if (run_len == 1) {
            ++s.singleton_runs[static_cast<std::size_t>(prev_truth)];
          }
        }
        run_len = 1;
      } else {
        ++run_len;
      }
      prev_truth = truth;
    }
  }
  if (run_len > 0) {
    ++s.runs[static_cast<std::size_t>(prev_truth)];
    if (run_len == 1) ++s.singleton_runs[static_cast<std::size_t>(prev_truth)];
  }
  return s;
}

using ValueCounts =
    std::unordered_map<common::BitVector, std::size_t, common::BitVectorHash>;

/// Occurrences of each value of variable `vid` over all traces, or nullopt
/// at the first row that brings a distinct value past `max_distinct`: the
/// variable is data-like from then on, whatever the remaining rows hold.
std::optional<ValueCounts> countValues(
    const std::vector<const trace::FunctionalTrace*>& traces, int vid,
    std::size_t max_distinct) {
  ValueCounts counts;
  for (const auto* t : traces) {
    for (std::size_t i = 0; i < t->length(); ++i) {
      const auto [it, fresh] = counts.try_emplace(t->value(i, vid), 0);
      if (fresh && counts.size() > max_distinct) return std::nullopt;
      ++it->second;
    }
  }
  return counts;
}

}  // namespace

std::vector<AtomicProposition> AssertionMiner::candidateAtoms(
    const std::vector<const trace::FunctionalTrace*>& traces,
    common::ThreadPool* pool) const {
  const trace::VariableSet& vars = traces.front()->variables();
  const std::size_t total = totalLength(traces);

  // Candidate extraction is independent per variable; results go into
  // per-variable slots and are concatenated in variable order, so the
  // candidate list is identical for every thread count.
  struct VarCandidates {
    std::vector<AtomicProposition> atoms;
    char control = 0;
  };
  std::vector<VarCandidates> per_var(vars.size());

  common::parallel_for(pool, vars.size(), [&](std::size_t v) {
    VarCandidates& out = per_var[v];
    const int vid = static_cast<int>(v);
    if (vars[v].width == 1) {
      out.control = 1;
      out.atoms.push_back({vid, CmpOp::Eq, -1, common::BitVector(1, 1)});
      return;
    }
    // Frequent-constant mining for wide variables.
    const std::optional<ValueCounts> counts =
        countValues(traces, vid, config_.max_distinct_for_constants);
    out.control = counts ? 1 : 0;
    if (!counts) {
      // Data-like variable: no constant atoms; the zero atom (if enabled)
      // still captures the common "bus held at 0" behaviour.
      if (config_.mine_zero) {
        out.atoms.push_back(
            {vid, CmpOp::Eq, -1, common::BitVector(vars[v].width, 0)});
      }
      return;
    }
    std::vector<std::pair<common::BitVector, std::size_t>> frequent(
        counts->begin(), counts->end());
    std::sort(frequent.begin(), frequent.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return common::BitVector::compare(a.first, b.first) < 0;
              });
    const auto min_count = static_cast<std::size_t>(
        config_.min_constant_support * static_cast<double>(total));
    std::size_t taken = 0;
    bool zero_taken = false;
    for (const auto& [value, count] : frequent) {
      if (taken >= config_.max_constants_per_var) break;
      if (count < std::max<std::size_t>(min_count, 2)) break;
      out.atoms.push_back({vid, CmpOp::Eq, -1, value});
      if (value.isZero()) zero_taken = true;
      ++taken;
    }
    if (config_.mine_zero && !zero_taken) {
      out.atoms.push_back(
          {vid, CmpOp::Eq, -1, common::BitVector(vars[v].width, 0)});
    }
  });

  std::vector<AtomicProposition> atoms;
  for (const VarCandidates& vc : per_var) {
    atoms.insert(atoms.end(), vc.atoms.begin(), vc.atoms.end());
  }

  // Relational atoms (=, >) between same-width wide variables, and only
  // between control-like ones: comparing two data buses (e.g. an AES key
  // against a data block) yields a truth value that is an artifact of the
  // particular random data, stable within an operation yet void of
  // behavioural meaning — it fragments the proposition alphabet across
  // operations.
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) {
      if (vars[i].width != vars[j].width || vars[i].width == 1) continue;
      if (!per_var[i].control || !per_var[j].control) continue;
      atoms.push_back({static_cast<int>(i), CmpOp::Eq,
                       static_cast<int>(j), common::BitVector()});
      atoms.push_back({static_cast<int>(i), CmpOp::Gt,
                       static_cast<int>(j), common::BitVector()});
    }
  }
  return atoms;
}

std::vector<AtomicProposition> AssertionMiner::mineAtoms(
    const std::vector<const trace::FunctionalTrace*>& traces,
    common::ThreadPool* pool) const {
  checkTraces(traces);
  std::unique_ptr<common::ThreadPool> local_pool;
  if (pool == nullptr &&
      common::ThreadPool::resolveThreads(config_.num_threads) > 1) {
    local_pool = std::make_unique<common::ThreadPool>(config_.num_threads);
    pool = local_pool.get();
  }

  std::vector<AtomicProposition> candidates;
  {
    obs::Span span("miner.candidates", "miner");
    candidates = candidateAtoms(traces, pool);
  }
  const std::size_t total = totalLength(traces);

  // Support, toggle-rate and run-structure filtering. One full-trace scan
  // per atom; scans are independent and land in per-atom slots.
  std::vector<AtomStats> stats(candidates.size());
  {
    obs::Span span("miner.scan", "miner");
    common::parallel_for(pool, candidates.size(), [&](std::size_t a) {
      stats[a] = scanAtom(candidates[a], traces);
    });
  }
  obs::metrics().counter("miner.candidate_atoms").add(candidates.size());
  obs::metrics().counter("miner.rows_scanned").add(total * candidates.size());

  std::size_t dropped_constant = 0;
  std::size_t dropped_noise = 0;
  std::size_t dropped_spiky = 0;
  const trace::VariableSet& vars = traces.front()->variables();
  std::vector<AtomicProposition> kept;
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    if (stats[a].hold == 0 || stats[a].hold == total) {  // constant
      ++dropped_constant;
      continue;
    }
    const double toggle_rate =
        static_cast<double>(stats[a].toggles) / static_cast<double>(total);
    if (toggle_rate > config_.max_toggle_rate) {  // noise
      ++dropped_noise;
      continue;
    }
    const bool boolean_atom =
        vars[static_cast<std::size_t>(candidates[a].lhs)].width == 1;
    if (!boolean_atom) {
      bool spiky = false;
      for (int pol = 0; pol < 2; ++pol) {
        if (stats[a].runs[static_cast<std::size_t>(pol)] == 0) continue;
        const double singleton_fraction =
            static_cast<double>(
                stats[a].singleton_runs[static_cast<std::size_t>(pol)]) /
            static_cast<double>(stats[a].runs[static_cast<std::size_t>(pol)]);
        if (singleton_fraction > config_.max_singleton_run_fraction) {
          spiky = true;
        }
      }
      if (spiky) {
        ++dropped_spiky;
        continue;
      }
    }
    kept.push_back(candidates[a]);
  }
  obs::metrics().counter("miner.atoms_kept").add(kept.size());
  obs::metrics().counter("miner.atoms_dropped.constant").add(dropped_constant);
  obs::metrics().counter("miner.atoms_dropped.noise").add(dropped_noise);
  obs::metrics().counter("miner.atoms_dropped.spiky").add(dropped_spiky);
  obs::debug("miner.mined", {{"candidates", candidates.size()},
                             {"kept", kept.size()},
                             {"dropped_constant", dropped_constant},
                             {"dropped_noise", dropped_noise},
                             {"dropped_spiky", dropped_spiky},
                             {"rows", total}});
  return kept;
}

PropositionDomain AssertionMiner::buildDomain(
    const std::vector<const trace::FunctionalTrace*>& traces,
    common::ThreadPool* pool) const {
  checkTraces(traces);
  return PropositionDomain(traces.front()->variables(),
                           mineAtoms(traces, pool));
}

PropositionTrace AssertionMiner::tracePropositions(
    PropositionDomain& domain, const trace::FunctionalTrace& t) {
  PropositionTrace out;
  out.ids.reserve(t.length());
  for (std::size_t i = 0; i < t.length(); ++i) {
    out.ids.push_back(domain.internRow(t.step(i)));
  }
  return out;
}

}  // namespace psmgen::core
