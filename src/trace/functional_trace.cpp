#include "trace/functional_trace.hpp"

#include <stdexcept>

namespace psmgen::trace {

void FunctionalTrace::append(std::vector<common::BitVector> row) {
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
  rows_.push_back(std::move(row));
}

unsigned FunctionalTrace::inputHammingDistance(std::size_t t) const {
  if (t == 0 || t >= rows_.size()) return 0;
  unsigned hd = 0;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    if (vars_[v].kind != VarKind::Input) continue;
    hd += common::BitVector::hammingDistance(rows_[t][v], rows_[t - 1][v]);
  }
  return hd;
}

unsigned FunctionalTrace::rowHammingDistance(std::size_t t) const {
  if (t == 0 || t >= rows_.size()) return 0;
  unsigned hd = 0;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    hd += common::BitVector::hammingDistance(rows_[t][v], rows_[t - 1][v]);
  }
  return hd;
}

FunctionalTrace FunctionalTrace::subtrace(std::size_t start,
                                          std::size_t len) const {
  if (start + len > rows_.size()) {
    throw std::out_of_range("FunctionalTrace::subtrace: range out of bounds");
  }
  FunctionalTrace out(vars_);
  out.rows_.assign(rows_.begin() + static_cast<std::ptrdiff_t>(start),
                   rows_.begin() + static_cast<std::ptrdiff_t>(start + len));
  return out;
}

void FunctionalTrace::extend(const FunctionalTrace& other) {
  if (!(other.vars_ == vars_)) {
    throw std::invalid_argument("FunctionalTrace::extend: variable mismatch");
  }
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
}

}  // namespace psmgen::trace
