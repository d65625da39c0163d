#include "core/flow.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "core/generator.hpp"
#include "obs/obs.hpp"

namespace psmgen::core {

void CharacterizationFlow::addTrainingTrace(trace::FunctionalTrace functional,
                                            trace::PowerTrace power) {
  if (functional.empty()) {
    throw std::invalid_argument("Flow: empty functional trace");
  }
  if (power.length() < functional.length()) {
    throw std::invalid_argument("Flow: power trace shorter than functional");
  }
  if (!functional_.empty() &&
      !(functional.variables() == functional_.front().variables())) {
    throw std::invalid_argument("Flow: variable set mismatch across traces");
  }
  functional_.push_back(std::move(functional));
  power_.push_back(std::move(power));
}

BuildReport CharacterizationFlow::build() {
  if (functional_.empty()) {
    throw std::logic_error("Flow: build() without training traces");
  }
  const auto t0 = std::chrono::steady_clock::now();
  BuildReport report;
  obs::Span build_span("flow.build");

  // One pool for the whole build; null on the num_threads == 1 path so
  // every parallel_for below degenerates to the seed's sequential loops.
  std::unique_ptr<common::ThreadPool> pool_storage;
  common::ThreadPool* pool = nullptr;
  if (common::ThreadPool::resolveThreads(config_.num_threads) > 1) {
    pool_storage = std::make_unique<common::ThreadPool>(config_.num_threads);
    pool = pool_storage.get();
  }

  // III-A: mine the shared proposition domain in one walk over the rows,
  // which also leaves each row's candidate truth words and its Hamming
  // distances.
  MinedRows mined;
  {
    obs::PhaseScope phase("mine");
    AssertionMiner miner(config_.miner);
    std::vector<const trace::FunctionalTrace*> views;
    views.reserve(functional_.size());
    for (const auto& f : functional_) views.push_back(&f);
    mined = miner.mine(views, pool);
    domain_ = std::make_unique<PropositionDomain>(
        functional_.front().variables(), mined.atoms);
  }
  report.atoms = domain_->atoms().size();

  // III-B: one proposition trace per training pair. Each chunk first
  // numbers its rows' signatures in a chunk-local index, on the pool; the
  // chunks' signatures are then interned in chunk order, each chunk's in
  // first-seen order: PropIds keep the exact first-seen numbering of
  // interning row by row in trace order.
  const std::size_t trace_count = functional_.size();
  std::vector<PropositionTrace> gammas(trace_count);
  std::size_t total_rows = 0;
  for (std::size_t i = 0; i < trace_count; ++i) {
    gammas[i].ids.resize(functional_[i].length());
    total_rows += functional_[i].length();
  }
  std::vector<SignatureIndex> chunk_index(mined.chunks.size());
  {
    obs::PhaseScope phase("signatures");
    common::parallel_for(pool, mined.chunks.size(), [&](std::size_t c) {
      obs::Span span("signatures#" + std::to_string(c), "task");
      mined.numberChunk(c, gammas[mined.chunks[c].trace].ids, chunk_index[c]);
    });
  }
  mined.releaseTruths();
  obs::metrics().counter("flow.rows_evaluated").add(total_rows);
  {
    obs::PhaseScope phase("intern");
    std::vector<std::vector<PropId>> global(mined.chunks.size());
    for (std::size_t c = 0; c < mined.chunks.size(); ++c) {
      for (PropId local = 0;
           local < static_cast<PropId>(chunk_index[c].size()); ++local) {
        global[c].push_back(domain_->intern(chunk_index[c].signature(local)));
      }
    }
    chunk_index = {};
    common::parallel_for(pool, mined.chunks.size(), [&](std::size_t c) {
      const RowChunk& chunk = mined.chunks[c];
      std::vector<PropId>& ids = gammas[chunk.trace].ids;
      for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
        ids[t] = global[c][static_cast<std::size_t>(ids[t])];
      }
    });
  }
  obs::metrics().gauge("flow.propositions").set(
      static_cast<double>(domain_->size()));

  // XU-automaton walk per trace, into pre-sized slots. The chains are
  // then simplified in place and move into the join.
  std::vector<Psm> chains(trace_count);
  {
    obs::PhaseScope phase("xu_walk");
    common::parallel_for(pool, trace_count, [&](std::size_t i) {
      obs::Span span("xu_walk#" + std::to_string(i), "task");
      chains[i] =
          PsmGenerator::generate(gammas[i], power_[i], static_cast<int>(i));
    });
  }
  gammas = {};
  for (const Psm& p : chains) report.raw_states += p.stateCount();
  report.propositions = domain_->size();

  // IV: simplify each chain (independent per trace), then join the set.
  {
    obs::PhaseScope phase("simplify");
    std::vector<std::size_t> fused(trace_count, 0);
    common::parallel_for(pool, trace_count, [&](std::size_t i) {
      obs::Span span("simplify#" + std::to_string(i), "task");
      fused[i] = simplify(chains[i], config_.merge);
    });
    for (const std::size_t f : fused) report.simplified_pairs += f;
  }
  {
    obs::PhaseScope phase("join");
    combined_ = join(std::move(chains), config_.merge);
  }

  // IV: regression refinement of data-dependent states.
  if (config_.apply_refine) {
    obs::PhaseScope phase("refine");
    const RefineReport rr = refineDataDependentStates(
        combined_, mined.distances, power_, config_.refine, pool);
    report.refined_states = rr.refined;
  }
  mined.distances = {};

  // V: HMM-backed simulator.
  {
    obs::PhaseScope phase("hmm");
    simulator_ =
        std::make_unique<PsmSimulator>(combined_, *domain_, config_.sim);
  }

  report.states = combined_.stateCount();
  report.transitions = combined_.transitionCount();
  report.generation_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  obs::Registry& reg = obs::metrics();
  reg.gauge("flow.atoms").set(static_cast<double>(report.atoms));
  reg.gauge("flow.raw_states").set(static_cast<double>(report.raw_states));
  reg.gauge("flow.states").set(static_cast<double>(report.states));
  reg.gauge("flow.transitions").set(static_cast<double>(report.transitions));
  reg.gauge("flow.refined_states")
      .set(static_cast<double>(report.refined_states));
  reg.gauge("flow.generation_seconds").set(report.generation_seconds);
  if (pool != nullptr && reg.enabled()) {
    reg.gauge("pool.workers").set(static_cast<double>(pool->threadCount()));
    reg.gauge("pool.jobs").set(static_cast<double>(pool->jobsExecuted()));
    const auto stats = pool->workerStats();
    double busy = 0.0;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const std::string base = "pool.worker." + std::to_string(i) + ".";
      reg.gauge(base + "busy_seconds").set(stats[i].busy_seconds);
      reg.gauge(base + "iterations")
          .set(static_cast<double>(stats[i].iterations));
      busy += stats[i].busy_seconds;
    }
    const double wall = report.generation_seconds *
                        static_cast<double>(pool->threadCount());
    reg.gauge("pool.utilization_percent")
        .set(wall > 0.0 ? 100.0 * busy / wall : 0.0);
  }
  obs::info("flow.built",
            {{"atoms", report.atoms},
             {"propositions", report.propositions},
             {"raw_states", report.raw_states},
             {"states", report.states},
             {"transitions", report.transitions},
             {"refined_states", report.refined_states},
             {"threads", common::ThreadPool::resolveThreads(config_.num_threads)},
             {"seconds", report.generation_seconds}});
  return report;
}

const PropositionDomain& CharacterizationFlow::domain() const {
  if (!domain_) throw std::logic_error("Flow: not built");
  return *domain_;
}

const Psm& CharacterizationFlow::psm() const {
  if (!simulator_) throw std::logic_error("Flow: not built");
  return combined_;
}

const PsmSimulator& CharacterizationFlow::simulator() const {
  if (!simulator_) throw std::logic_error("Flow: not built");
  return *simulator_;
}

SimResult CharacterizationFlow::estimate(
    const trace::FunctionalTrace& trace) const {
  return simulator().simulate(trace);
}

double CharacterizationFlow::evaluateMre(
    const trace::FunctionalTrace& trace,
    const trace::PowerTrace& reference) const {
  const SimResult r = estimate(trace);
  return trace::meanRelativeError(
      r.estimate, trace::referenceSamples(reference, r.estimate.size()));
}

}  // namespace psmgen::core
