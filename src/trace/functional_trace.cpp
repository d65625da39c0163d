#include "trace/functional_trace.hpp"

#include <stdexcept>
#include <utility>

namespace psmgen::trace {

namespace {
std::size_t limbsFor(unsigned width) { return (std::size_t{width} + 63) / 64; }
}  // namespace

FunctionalTrace::FunctionalTrace(VariableSet vars) : vars_(std::move(vars)) {
  offsets_.reserve(vars_.size());
  for (const VariableDef& v : vars_.all()) {
    offsets_.push_back(row_limbs_);
    row_limbs_ += limbsFor(v.width);
  }
}

FunctionalTrace::FunctionalTrace(FunctionalTrace&& other) noexcept
    : vars_(std::exchange(other.vars_, {})),
      offsets_(std::exchange(other.offsets_, {})),
      row_limbs_(std::exchange(other.row_limbs_, 0)),
      length_(std::exchange(other.length_, 0)),
      limbs_(std::exchange(other.limbs_, {})) {}

FunctionalTrace& FunctionalTrace::operator=(FunctionalTrace&& other) noexcept {
  vars_ = std::exchange(other.vars_, {});
  offsets_ = std::exchange(other.offsets_, {});
  row_limbs_ = std::exchange(other.row_limbs_, 0);
  length_ = std::exchange(other.length_, 0);
  limbs_ = std::exchange(other.limbs_, {});
  return *this;
}

void FunctionalTrace::append(const std::vector<common::BitVector>& row) {
  if (row.size() != vars_.size()) {
    throw std::invalid_argument("FunctionalTrace::append: row arity mismatch");
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].width() != vars_[i].width) {
      throw std::invalid_argument(
          "FunctionalTrace::append: width mismatch for variable " +
          vars_[i].name);
    }
  }
  const std::size_t at = limbs_.size();
  limbs_.resize(at + row_limbs_);
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i].readLimbs(limbs_.data() + at + offsets_[i]);
  }
  ++length_;
}

void FunctionalTrace::readRow(std::size_t t,
                              std::vector<common::BitVector>& row) const {
  if (t >= length_) {
    throw std::out_of_range("FunctionalTrace::readRow: instant out of range");
  }
  const std::vector<VariableDef>& defs = vars_.all();
  const std::uint64_t* limbs = rowLimbs(t);
  row.resize(defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    row[i].assignLimbs(defs[i].width, limbs + offsets_[i]);
  }
}

std::vector<common::BitVector> FunctionalTrace::step(std::size_t t) const {
  std::vector<common::BitVector> row;
  readRow(t, row);
  return row;
}

common::BitVector FunctionalTrace::value(std::size_t t, int var) const {
  if (t >= length_ || var < 0 ||
      static_cast<std::size_t>(var) >= vars_.size()) {
    throw std::out_of_range("FunctionalTrace::value: index out of range");
  }
  const auto v = static_cast<std::size_t>(var);
  common::BitVector out;
  out.assignLimbs(vars_[v].width, rowLimbs(t) + offsets_[v]);
  return out;
}

unsigned FunctionalTrace::inputHammingDistance(std::size_t t) const {
  if (t == 0 || t >= length_) return 0;
  const std::uint64_t* now = rowLimbs(t);
  const std::uint64_t* before = now - row_limbs_;
  const std::vector<VariableDef>& defs = vars_.all();
  unsigned hd = 0;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (defs[i].kind != VarKind::Input) continue;
    const std::size_t end = offsets_[i] + limbsFor(defs[i].width);
    for (std::size_t k = offsets_[i]; k < end; ++k) {
      hd += common::bitCount(now[k] ^ before[k]);
    }
  }
  return hd;
}

unsigned FunctionalTrace::rowHammingDistance(std::size_t t) const {
  if (t == 0 || t >= length_) return 0;
  const std::uint64_t* now = rowLimbs(t);
  const std::uint64_t* before = now - row_limbs_;
  unsigned hd = 0;
  for (std::size_t k = 0; k < row_limbs_; ++k) {
    hd += common::bitCount(now[k] ^ before[k]);
  }
  return hd;
}

FunctionalTrace FunctionalTrace::subtrace(std::size_t start,
                                          std::size_t len) const {
  if (start + len > length_) {
    throw std::out_of_range("FunctionalTrace::subtrace: range out of bounds");
  }
  FunctionalTrace out(vars_);
  out.limbs_.assign(rowLimbs(start), rowLimbs(start + len));
  out.length_ = len;
  return out;
}

void FunctionalTrace::extend(const FunctionalTrace& other) {
  if (!(other.vars_ == vars_)) {
    throw std::invalid_argument("FunctionalTrace::extend: variable mismatch");
  }
  limbs_.insert(limbs_.end(), other.limbs_.begin(), other.limbs_.end());
  length_ += other.length_;
}

}  // namespace psmgen::trace
