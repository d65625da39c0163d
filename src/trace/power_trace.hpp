#pragma once
// PowerTrace (paper Def. 2): per-instant dynamic energy consumption
// delta_i = 1/2 * Vdd^2 * f * C * alpha(t_i), as produced by a gate-level
// power simulator. Carries the electrical parameters used to generate it
// so results are self-describing.

#include <cstddef>
#include <vector>

namespace psmgen::trace {

struct PowerParams {
  double vdd = 1.0;              ///< supply voltage [V]
  double clock_hz = 100.0e6;     ///< clock frequency [Hz]
  double cap_per_bit = 1.0e-14;  ///< effective switched capacitance per bit [F]

  bool operator==(const PowerParams&) const = default;
};

class PowerTrace {
 public:
  PowerTrace() = default;
  explicit PowerTrace(PowerParams params) : params_(params) {}

  const PowerParams& params() const { return params_; }

  void append(double watts) { samples_.push_back(watts); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t length() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double at(std::size_t t) const { return samples_.at(t); }
  const std::vector<double>& samples() const { return samples_; }

  /// Mean power over [start, stop] inclusive.
  double mean(std::size_t start, std::size_t stop) const;
  /// Total energy over the whole trace assuming one sample per clock cycle.
  double totalEnergy() const;

  PowerTrace subtrace(std::size_t start, std::size_t len) const;
  void extend(const PowerTrace& other);

  bool operator==(const PowerTrace&) const = default;

 private:
  PowerParams params_;
  std::vector<double> samples_;
};

/// Mean relative error between an estimate and a reference (paper's MRE
/// metric, Sec. VI): mean over t of |est(t) - ref(t)| / ref(t), skipping
/// instants where the reference is zero.
double meanRelativeError(const std::vector<double>& estimate,
                         const std::vector<double>& reference);

/// The first `n` samples of `reference`: what an estimate of `n` instants
/// is scored against, since a reference may run longer than the estimate.
/// Throws std::invalid_argument naming both lengths if it is shorter.
std::vector<double> referenceSamples(const PowerTrace& reference,
                                     std::size_t n);

}  // namespace psmgen::trace
