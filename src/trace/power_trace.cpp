#include "trace/power_trace.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace psmgen::trace {

double PowerTrace::mean(std::size_t start, std::size_t stop) const {
  if (start > stop || stop >= samples_.size()) {
    throw std::out_of_range("PowerTrace::mean: bad interval");
  }
  double sum = 0.0;
  for (std::size_t t = start; t <= stop; ++t) sum += samples_[t];
  return sum / static_cast<double>(stop - start + 1);
}

double PowerTrace::totalEnergy() const {
  if (params_.clock_hz <= 0.0) return 0.0;
  double sum = 0.0;
  for (const double s : samples_) sum += s;
  return sum / params_.clock_hz;
}

PowerTrace PowerTrace::subtrace(std::size_t start, std::size_t len) const {
  if (start + len > samples_.size()) {
    throw std::out_of_range("PowerTrace::subtrace: range out of bounds");
  }
  PowerTrace out(params_);
  out.samples_.assign(samples_.begin() + static_cast<std::ptrdiff_t>(start),
                      samples_.begin() + static_cast<std::ptrdiff_t>(start + len));
  return out;
}

void PowerTrace::extend(const PowerTrace& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

double meanRelativeError(const std::vector<double>& estimate,
                         const std::vector<double>& reference) {
  if (estimate.size() != reference.size()) {
    throw std::invalid_argument("meanRelativeError: length mismatch");
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < estimate.size(); ++t) {
    if (reference[t] == 0.0) continue;
    sum += std::fabs(estimate[t] - reference[t]) / std::fabs(reference[t]);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<double> referenceSamples(const PowerTrace& reference,
                                     std::size_t n) {
  if (reference.length() < n) {
    throw std::invalid_argument(
        "reference power trace has " + std::to_string(reference.length()) +
        " samples, fewer than the " + std::to_string(n) +
        " instants estimated");
  }
  const auto& s = reference.samples();
  return {s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n)};
}

}  // namespace psmgen::trace
