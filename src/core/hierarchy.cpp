#include "core/hierarchy.hpp"

#include <stdexcept>

namespace psmgen::core {

HierarchicalFlow::HierarchicalFlow(FlowConfig config) : config_(config) {}

void HierarchicalFlow::addTrainingTrace(
    const trace::FunctionalTrace& functional,
    const std::vector<trace::PowerTrace>& per_component,
    const std::vector<std::string>& names) {
  if (per_component.empty() || per_component.size() != names.size()) {
    throw std::invalid_argument(
        "HierarchicalFlow: component traces and names must align");
  }
  if (flows_.empty()) {
    names_ = names;
    for (std::size_t i = 0; i < names.size(); ++i) {
      flows_.push_back(std::make_unique<CharacterizationFlow>(config_));
    }
  } else if (names != names_) {
    throw std::invalid_argument(
        "HierarchicalFlow: partition layout changed between traces");
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i]->addTrainingTrace(functional, per_component[i]);
  }
}

std::vector<BuildReport> HierarchicalFlow::build() {
  if (flows_.empty()) {
    throw std::logic_error("HierarchicalFlow: build() without traces");
  }
  std::vector<BuildReport> reports;
  reports.reserve(flows_.size());
  for (auto& flow : flows_) reports.push_back(flow->build());
  return reports;
}

HierarchicalFlow::HierarchicalEstimate HierarchicalFlow::estimate(
    const trace::FunctionalTrace& trace) const {
  HierarchicalEstimate out;
  out.total.assign(trace.length(), 0.0);
  for (const auto& flow : flows_) {
    out.per_component.push_back(flow->estimate(trace));
    const auto& est = out.per_component.back().estimate;
    for (std::size_t t = 0; t < est.size(); ++t) out.total[t] += est[t];
  }
  return out;
}

HierarchicalFlow::Accuracy HierarchicalFlow::evaluate(
    const trace::FunctionalTrace& trace,
    const std::vector<trace::PowerTrace>& reference) const {
  if (reference.size() != flows_.size()) {
    throw std::invalid_argument("HierarchicalFlow: reference arity mismatch");
  }
  const HierarchicalEstimate est = estimate(trace);
  Accuracy acc;
  std::vector<double> total_ref(trace.length(), 0.0);
  double grand_total = 0.0;
  std::vector<double> component_total(flows_.size(), 0.0);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const std::vector<double> ref =
        trace::referenceSamples(reference[i], trace.length());
    acc.component_mre.push_back(
        trace::meanRelativeError(est.per_component[i].estimate, ref));
    for (std::size_t t = 0; t < ref.size(); ++t) {
      total_ref[t] += ref[t];
      component_total[i] += ref[t];
      grand_total += ref[t];
    }
  }
  acc.total_mre = trace::meanRelativeError(est.total, total_ref);
  for (const double c : component_total) {
    acc.power_share.push_back(grand_total > 0.0 ? c / grand_total : 0.0);
  }
  return acc;
}

}  // namespace psmgen::core
