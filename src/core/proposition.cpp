#include "core/proposition.hpp"

#include <algorithm>
#include <stdexcept>

namespace psmgen::core {

bool AtomicProposition::eval(const std::vector<common::BitVector>& row) const {
  const common::BitVector& a = row.at(static_cast<std::size_t>(lhs));
  const common::BitVector& b =
      rhs_var >= 0 ? row.at(static_cast<std::size_t>(rhs_var)) : rhs_const;
  switch (op) {
    case CmpOp::Eq: return common::BitVector::compare(a, b) == 0;
    case CmpOp::Gt: return common::BitVector::compare(a, b) > 0;
  }
  return false;
}

std::string AtomicProposition::toString(const trace::VariableSet& vars) const {
  const std::string lhs_name = vars[static_cast<std::size_t>(lhs)].name;
  const std::string op_name = op == CmpOp::Eq ? "=" : ">";
  if (rhs_var >= 0) {
    return lhs_name + op_name + vars[static_cast<std::size_t>(rhs_var)].name;
  }
  if (rhs_const.width() == 1) {
    return lhs_name + op_name + (rhs_const.bit(0) ? "1" : "0");
  }
  return lhs_name + op_name + "0x" + rhs_const.toHex();
}

PropositionDomain::PropositionDomain(trace::VariableSet vars,
                                     std::vector<AtomicProposition> atoms)
    : vars_(std::move(vars)), atoms_(std::move(atoms)) {}

void PropositionDomain::evalRow(const std::vector<common::BitVector>& row,
                                common::BitVector& out) const {
  out.reshape(static_cast<unsigned>(atoms_.size()));
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (atoms_[i].eval(row)) out.setBit(static_cast<unsigned>(i), true);
  }
}

common::BitVector PropositionDomain::evalRow(
    const std::vector<common::BitVector>& row) const {
  common::BitVector sig;
  evalRow(row, sig);
  return sig;
}

std::size_t SignatureIndex::hash(const common::BitVector& sig) {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
    h ^= h >> 29;
  };
  mix(sig.width());
  for (std::size_t i = 0; i < sig.limbCount(); ++i) mix(sig.limb(i));
  return h;
}

std::size_t SignatureIndex::slotOf(const common::BitVector& sig) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash(sig) & mask;; i = (i + 1) & mask) {
    const PropId id = slots_[i];
    if (id == kNoProp || signatures_[static_cast<std::size_t>(id)] == sig) {
      return i;
    }
  }
}

PropId SignatureIndex::intern(const common::BitVector& sig) {
  if (2 * (signatures_.size() + 1) > slots_.size()) {
    // Double the table and re-insert every id, in id order.
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), kNoProp);
    for (std::size_t id = 0; id < signatures_.size(); ++id) {
      slots_[slotOf(signatures_[id])] = static_cast<PropId>(id);
    }
  }
  PropId& slot = slots_[slotOf(sig)];
  if (slot == kNoProp) {
    slot = static_cast<PropId>(signatures_.size());
    signatures_.push_back(sig);
  }
  return slot;
}

PropId SignatureIndex::find(const common::BitVector& sig) const {
  return slots_.empty() ? kNoProp : slots_[slotOf(sig)];
}

PropId PropositionDomain::internRow(const std::vector<common::BitVector>& row) {
  return intern(evalRow(row));
}

std::string PropositionDomain::describe(PropId id) const {
  if (id == kNoProp) return "<unknown>";
  const common::BitVector& sig = signature(id);
  std::string out;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (!sig.bit(static_cast<unsigned>(i))) continue;
    if (!out.empty()) out += " & ";
    out += atoms_[i].toString(vars_);
  }
  return out.empty() ? "<no-atom-true>" : out;
}

std::string PropositionDomain::shortName(PropId id) const {
  if (id == kNoProp) return "p_nil";
  std::string out = "p";
  out += std::to_string(id);
  return out;
}

}  // namespace psmgen::core
