#include "core/miner.hpp"

#include <algorithm>
#include <bit>
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

/// One candidate atom over one chunk. The chunk's first run (head) and its
/// last run (tail) may continue into the neighbouring chunks of the trace,
/// so they are left open; `inner` counts the runs between them and every
/// toggle inside the chunk. A chunk without a toggle is one run.
struct ChunkRuns {
  std::size_t head = 0;
  std::size_t tail = 0;
  AtomStats inner;
};

/// Walks the rows of one chunk once: writes each row's candidate truth
/// words and Hamming distances (into the trace's arrays `truths` and
/// `distances`) and each candidate's ChunkRuns (into `runs`).
void walkChunk(const trace::FunctionalTrace& f, const RowChunk& chunk,
               const std::vector<AtomicProposition>& candidates,
               std::size_t words, std::uint64_t* truths,
               RowDistances* distances, ChunkRuns* runs) {
  const std::size_t n = candidates.size();
  // Per candidate, the chunk row on which its current run began.
  std::vector<std::size_t> run_start(n, 0);
  std::vector<common::BitVector> row;
  for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
    f.readRow(t, row);
    std::uint64_t* w = truths + t * words;
    for (std::size_t k = 0; k < words; ++k) {
      std::uint64_t bits = 0;
      for (std::size_t a = 64 * k; a < std::min(n, 64 * k + 64); ++a) {
        bits |= std::uint64_t{candidates[a].eval(row)} << (a % 64);
      }
      w[k] = bits;
    }
    distances[t] = {f.inputHammingDistance(t), f.rowHammingDistance(t)};
    if (t == chunk.begin) continue;
    // A candidate whose truth flipped closes the run that ended on t - 1.
    const std::size_t i = t - chunk.begin;
    const std::uint64_t* before = w - words;
    for (std::size_t k = 0; k < words; ++k) {
      for (std::uint64_t flips = w[k] ^ before[k]; flips != 0;
           flips &= flips - 1) {
        const std::size_t a = 64 * k + std::countr_zero(flips);
        const std::size_t length = i - run_start[a];
        if (run_start[a] == 0) {
          runs[a].head = length;
        } else {
          runs[a].inner.closeRun((before[k] >> (a % 64)) & 1, length);
        }
        ++runs[a].inner.toggles;
        run_start[a] = i;
      }
    }
  }
  const std::size_t length = chunk.end - chunk.begin;
  for (std::size_t a = 0; a < n; ++a) {
    runs[a].tail = length - run_start[a];
    if (run_start[a] == 0) runs[a].head = length;
  }
}

/// Candidate `a`'s statistics over every chunk, stitched in chunk order. A
/// run left open at the end of a chunk continues into the next chunk of
/// its trace if the truth holds there, and closes otherwise (a toggle);
/// a trace's last run closes at the trace's end.
AtomStats stitch(const MinedRows& mined, const std::vector<ChunkRuns>& runs,
                 std::size_t a) {
  AtomStats s;
  bool open_truth = false;
  std::size_t open_length = 0;
  for (std::size_t c = 0; c < mined.chunks.size(); ++c) {
    const RowChunk& chunk = mined.chunks[c];
    const ChunkRuns& r = runs[c * mined.candidates.size() + a];
    const bool first = mined.holds(chunk.trace, chunk.begin, a);
    // Chunks run in trace and row order, so a chunk that does not start
    // its trace continues the previous one.
    const bool continues = chunk.begin > 0;
    if (continues && first == open_truth) {
      open_length += r.head;
    } else {
      if (c > 0) s.closeRun(open_truth, open_length);
      if (continues) ++s.toggles;
      open_truth = first;
      open_length = r.head;
    }
    if (r.inner.toggles > 0) {
      s.closeRun(open_truth, open_length);
      s.hold += r.inner.hold;
      s.toggles += r.inner.toggles;
      for (const std::size_t pol : {0, 1}) {
        s.runs[pol] += r.inner.runs[pol];
        s.singleton_runs[pol] += r.inner.singleton_runs[pol];
      }
      open_truth = mined.holds(chunk.trace, chunk.end - 1, a);
      open_length = r.tail;
    }
  }
  s.closeRun(open_truth, open_length);
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

bool MinedRows::holds(std::size_t trace, std::size_t t,
                      std::size_t a) const {
  return ((truths_[trace][t * words_ + a / 64] >> (a % 64)) & 1) != 0;
}

void MinedRows::numberChunk(std::size_t c, std::vector<PropId>& ids,
                            SignatureIndex& index) const {
  const RowChunk& chunk = chunks[c];
  Signature sig;
  for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
    // The signature is the row's truth words projected onto the kept atoms.
    const std::uint64_t* w = truths_[chunk.trace].data() + t * words_;
    sig.reset(atoms.size());
    for (std::size_t k = 0; k < words_; ++k) {
      for (std::uint64_t bits = w[k]; bits != 0; bits &= bits - 1) {
        const std::uint32_t j = atom_index_[64 * k + std::countr_zero(bits)];
        if (j != kDropped) sig.set(j);
      }
    }
    ids[t] = index.intern(sig);
  }
}

MinedRows AssertionMiner::mine(
    const std::vector<const trace::FunctionalTrace*>& traces,
    common::ThreadPool* pool) const {
  checkTraces(traces);
  MinedRows mined;
  {
    obs::Span span("miner.candidates", "miner");
    mined.candidates = candidateAtoms(traces, pool);
  }
  const std::vector<AtomicProposition>& candidates = mined.candidates;
  const std::size_t total = totalLength(traces);

  // The walk: each chunk writes its rows' truth words and distances into
  // the trace's arrays, and its run structure into a per-chunk slot; the
  // statistics are then stitched per candidate, in chunk order.
  mined.words_ = (candidates.size() + 63) / 64;
  mined.truths_.resize(traces.size());
  mined.distances.resize(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::size_t len = traces[i]->length();
    mined.truths_[i].resize(len * mined.words_);
    mined.distances[i].resize(len);
    for (std::size_t b = 0; b < len; b += kRowChunk) {
      mined.chunks.push_back({i, b, std::min(len, b + kRowChunk)});
    }
  }
  mined.stats.resize(candidates.size());
  {
    obs::Span span("miner.scan", "miner");
    std::vector<ChunkRuns> runs(mined.chunks.size() * candidates.size());
    common::parallel_for(pool, mined.chunks.size(), [&](std::size_t c) {
      const RowChunk& chunk = mined.chunks[c];
      walkChunk(*traces[chunk.trace], chunk, candidates, mined.words_,
                mined.truths_[chunk.trace].data(),
                mined.distances[chunk.trace].data(),
                runs.data() + c * candidates.size());
    });
    common::parallel_for(pool, candidates.size(), [&](std::size_t a) {
      mined.stats[a] = stitch(mined, runs, a);
    });
  }
  const std::vector<AtomStats>& stats = mined.stats;
  obs::metrics().counter("miner.candidate_atoms").add(candidates.size());
  obs::metrics().counter("miner.rows_scanned").add(total * candidates.size());

  std::size_t dropped_constant = 0;
  std::size_t dropped_noise = 0;
  std::size_t dropped_spiky = 0;
  const trace::VariableSet& vars = traces.front()->variables();
  std::vector<AtomicProposition>& kept = mined.atoms;
  mined.atom_index_.assign(candidates.size(), MinedRows::kDropped);
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
    mined.atom_index_[a] = static_cast<std::uint32_t>(kept.size());
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
  return mined;
}

PropositionTrace AssertionMiner::tracePropositions(
    PropositionDomain& domain, const trace::FunctionalTrace& t) {
  PropositionTrace out;
  out.ids.reserve(t.length());
  std::vector<common::BitVector> row;
  for (std::size_t i = 0; i < t.length(); ++i) {
    t.readRow(i, row);
    out.ids.push_back(domain.internRow(row));
  }
  return out;
}

}  // namespace psmgen::core
