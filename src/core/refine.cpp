#include "core/refine.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace psmgen::core {

namespace {

/// The two regressions of one candidate state, fitted over the rows of its
/// intervals; `samples` below the minimum leaves both unfitted.
struct CandidateFit {
  StateId state = kNoState;
  std::size_t samples = 0;
  stats::LinearFit inputs;     ///< power against the input Hamming distance
  stats::LinearFit interface;  ///< power against the PI+PO Hamming distance
};

}  // namespace

RefineReport refineDataDependentStates(
    Psm& psm, const std::vector<std::vector<RowDistances>>& distances,
    const std::vector<trace::PowerTrace>& power, const RefineConfig& cfg,
    common::ThreadPool* pool) {
  if (distances.size() != power.size()) {
    throw std::invalid_argument("refine: trace vectors size mismatch");
  }
  std::vector<CandidateFit> fits;
  for (StateId id = 0; id < static_cast<StateId>(psm.stateCount()); ++id) {
    if (psm.state(id).power.cv() > cfg.min_cv) fits.emplace_back().state = id;
  }
  // Each candidate's fit reads only its own intervals, so the fits run on
  // the pool into per-candidate slots; adoption below runs in state order.
  common::parallel_for(pool, fits.size(), [&](std::size_t c) {
    CandidateFit& fit = fits[c];
    const PowerState& s = psm.state(fit.state);
    std::size_t rows = 0;
    for (const Interval& iv : s.intervals) rows += iv.length();
    std::vector<double> hd_in;
    std::vector<double> hd_io;
    std::vector<double> watts;
    hd_in.reserve(rows);
    hd_io.reserve(rows);
    watts.reserve(rows);
    for (const Interval& iv : s.intervals) {
      if (iv.trace_id < 0 ||
          static_cast<std::size_t>(iv.trace_id) >= distances.size()) {
        throw std::out_of_range("refine: interval references unknown trace");
      }
      const auto& d = distances[static_cast<std::size_t>(iv.trace_id)];
      const auto& p = power[static_cast<std::size_t>(iv.trace_id)];
      for (std::size_t t = iv.start; t <= iv.stop; ++t) {
        hd_in.push_back(static_cast<double>(d.at(t).inputs));
        hd_io.push_back(static_cast<double>(d.at(t).interface));
        watts.push_back(p.at(t));
      }
    }
    fit.samples = watts.size();
    if (fit.samples < cfg.min_samples) return;
    fit.inputs = stats::linearRegression(hd_in, watts);
    fit.interface = stats::linearRegression(hd_io, watts);
  });

  RefineReport report;
  report.candidates = fits.size();
  for (const CandidateFit& fit : fits) {
    if (fit.samples < cfg.min_samples) continue;
    PowerState& s = psm.state(fit.state);
    // Keep the better-correlated of the two observables (the methodology
    // observes the whole black-box interface; which part drives the power
    // is IP-dependent).
    const bool use_inputs = std::fabs(fit.inputs.pearson_r) >=
                            std::fabs(fit.interface.pearson_r);
    const stats::LinearFit& best = use_inputs ? fit.inputs : fit.interface;
    obs::metrics().counter("refine.regressions_fitted").add(2);
    obs::metrics().histogram("refine.sigma").record(s.power.stddev);
    obs::metrics().histogram("refine.cv").record(s.power.cv());
    obs::metrics().histogram("refine.abs_pearson_r")
        .record(std::fabs(best.pearson_r));
    if (std::fabs(best.pearson_r) < cfg.min_abs_r) continue;
    s.regression = best;
    s.regression_scope =
        use_inputs ? HammingScope::Inputs : HammingScope::Interface;
    ++report.refined;
  }
  obs::metrics().counter("refine.candidates").add(report.candidates);
  obs::metrics().counter("refine.refined").add(report.refined);
  obs::debug("refine.done", {{"candidates", report.candidates},
                             {"refined", report.refined}});
  return report;
}

}  // namespace psmgen::core
