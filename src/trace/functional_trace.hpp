#pragma once
// FunctionalTrace (paper Def. 2): a finite sequence of evaluations of the
// variable set V (primary inputs and outputs) over simulation instants.
//
// The trace stores its rows flat, in one array of 64-bit limbs: every row
// takes the same number of limbs, and each variable sits at a fixed limb
// offset within a row, taken once from the VariableSet. So a trace holds
// a few words per instant in one heap block, not a row of BitVector
// values. readRow(t, row) refills a caller's reused row, and step(t) and
// value(t, v) return copies for one-off readers. The trace also provides
// the per-instant Hamming distances used by the regression refinement
// (Sec. IV), counted over the limbs.

#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "trace/variable.hpp"

namespace psmgen::trace {

class FunctionalTrace {
 public:
  FunctionalTrace() = default;
  explicit FunctionalTrace(VariableSet vars);

  FunctionalTrace(const FunctionalTrace&) = default;
  FunctionalTrace& operator=(const FunctionalTrace&) = default;
  /// A moved-from trace is empty and declares no variables.
  FunctionalTrace(FunctionalTrace&& other) noexcept;
  FunctionalTrace& operator=(FunctionalTrace&& other) noexcept;

  const VariableSet& variables() const { return vars_; }

  /// Appends a simulation instant. The row must contain one value per
  /// variable with matching widths; throws std::invalid_argument otherwise.
  void append(const std::vector<common::BitVector>& row);

  std::size_t length() const { return length_; }
  bool empty() const { return length_ == 0; }

  /// Refills `row` with the values at instant t, one per variable in
  /// VariableSet order. A row that already holds values of the trace's
  /// widths is refilled by copying limbs, without allocating. Throws
  /// std::out_of_range if t >= length().
  void readRow(std::size_t t, std::vector<common::BitVector>& row) const;

  /// The values at instant t, in a fresh row.
  std::vector<common::BitVector> step(std::size_t t) const;
  /// The value of variable `var` at instant t.
  common::BitVector value(std::size_t t, int var) const;

  /// Hamming distance between the concatenated input variables at instants
  /// t and t-1; 0 for t == 0.
  unsigned inputHammingDistance(std::size_t t) const;

  /// Hamming distance over *all* variables (PIs and POs) between instants
  /// t and t-1; 0 for t == 0. The regression refinement observes both
  /// directions, as the methodology is defined over the IP's full
  /// black-box interface.
  unsigned rowHammingDistance(std::size_t t) const;

  /// Keeps instants [start, start+len) only.
  FunctionalTrace subtrace(std::size_t start, std::size_t len) const;

  /// Concatenates another trace with the same variable set.
  void extend(const FunctionalTrace& other);

  bool operator==(const FunctionalTrace&) const = default;

 private:
  const std::uint64_t* rowLimbs(std::size_t t) const {
    return limbs_.data() + t * row_limbs_;
  }

  VariableSet vars_;
  /// Per variable, the offset of its first limb within a row.
  std::vector<std::size_t> offsets_;
  /// Limbs per row: the sum of the variables' limb counts.
  std::size_t row_limbs_ = 0;
  std::size_t length_ = 0;
  /// Row t occupies limbs [t * row_limbs_, (t + 1) * row_limbs_).
  std::vector<std::uint64_t> limbs_;
};

}  // namespace psmgen::trace
