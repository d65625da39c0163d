#include "trace/variable.hpp"

#include <stdexcept>
#include <string>

namespace psmgen::trace {

VariableSet::VariableSet(std::vector<VariableDef> vars) : vars_(std::move(vars)) {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    for (std::size_t j = i + 1; j < vars_.size(); ++j) {
      if (vars_[i].name == vars_[j].name) {
        throw std::invalid_argument("VariableSet: duplicate variable name " +
                                    vars_[i].name);
      }
    }
  }
}

int VariableSet::add(const std::string& name, unsigned width, VarKind kind) {
  if (find(name) >= 0) {
    throw std::invalid_argument("VariableSet::add: duplicate name " + name);
  }
  if (width > kMaxVariableWidth) {
    throw std::invalid_argument(
        "VariableSet::add: width " + std::to_string(width) + " of " + name +
        " exceeds " + std::to_string(kMaxVariableWidth) + " bits");
  }
  vars_.push_back({name, width, kind});
  return static_cast<int>(vars_.size() - 1);
}

int VariableSet::find(const std::string& name) const {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

unsigned VariableSet::inputBits() const {
  unsigned bits = 0;
  for (const auto& v : vars_) {
    if (v.kind == VarKind::Input) bits += v.width;
  }
  return bits;
}

unsigned VariableSet::outputBits() const {
  unsigned bits = 0;
  for (const auto& v : vars_) {
    if (v.kind == VarKind::Output) bits += v.width;
  }
  return bits;
}

}  // namespace psmgen::trace
