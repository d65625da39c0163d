#pragma once
// Variable metadata for functional traces (paper Def. 2): the set V of
// primary inputs and primary outputs a trace predicates over.

#include <string>
#include <vector>

namespace psmgen::trace {

enum class VarKind { Input, Output };

/// Widest variable a trace or an artifact may declare, in bits. The widest
/// port of any IP here has 262 bits; the bound stops a hostile header or
/// artifact from asking for gigabytes per value.
inline constexpr unsigned kMaxVariableWidth = 65536;

struct VariableDef {
  std::string name;
  unsigned width = 1;
  VarKind kind = VarKind::Input;

  bool operator==(const VariableDef&) const = default;
};

/// An ordered variable set; index positions are the variable ids used by
/// traces and mined propositions.
class VariableSet {
 public:
  VariableSet() = default;
  explicit VariableSet(std::vector<VariableDef> vars);

  /// Appends a variable; returns its id. Throws std::invalid_argument on a
  /// duplicate name or a width above kMaxVariableWidth.
  int add(const std::string& name, unsigned width, VarKind kind);

  std::size_t size() const { return vars_.size(); }
  const VariableDef& operator[](std::size_t i) const { return vars_.at(i); }
  const std::vector<VariableDef>& all() const { return vars_; }

  /// Id of the named variable, or -1 if absent.
  int find(const std::string& name) const;

  /// Total bit width of all input variables.
  unsigned inputBits() const;
  /// Total bit width of all output variables.
  unsigned outputBits() const;

  bool operator==(const VariableSet&) const = default;

 private:
  std::vector<VariableDef> vars_;
};

}  // namespace psmgen::trace
