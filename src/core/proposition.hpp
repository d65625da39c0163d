#pragma once
// Propositions (paper Def. 1 / Sec. III-A).
//
// An atomic proposition is a relational predicate over the IP's primary
// inputs/outputs (e.g. "we = 1", "v3 > v4", "wdata = 0xA5"). A
// *proposition* is the AND-composition of atomic propositions derived from
// one row of the truth matrix m: the mining procedure guarantees that in
// each simulation instant exactly one proposition holds, which we realize
// by identifying a proposition with the complete truth signature of the
// whole atom set (true atoms AND negated false atoms). Two instants map
// to the same proposition iff all atoms agree on them.
//
// A signature is a common::BitVector with one bit per atom, bit i being
// the truth of atom i. Up to 128 atoms it stays inside the object, so an
// interned signature owns no heap block.
//
// PropositionDomain owns the atom set of an IP and interns signatures to
// dense PropIds. The domain is shared by every trace of the same IP so
// that proposition identities are consistent across the PSMs that the
// join procedure and the HMM later combine.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "trace/functional_trace.hpp"

namespace psmgen::core {

enum class CmpOp { Eq, Gt };

struct AtomicProposition {
  int lhs = -1;                    ///< variable id
  CmpOp op = CmpOp::Eq;
  int rhs_var = -1;                ///< -1 => compare against rhs_const
  common::BitVector rhs_const;

  bool eval(const std::vector<common::BitVector>& row) const;
  std::string toString(const trace::VariableSet& vars) const;

  bool operator==(const AtomicProposition&) const = default;
};

using PropId = int;
inline constexpr PropId kNoProp = -1;

/// Dense ids for distinct signatures, numbered in first-seen order.
class SignatureIndex {
 public:
  /// Returns the id of `sig`, giving it the next id if new.
  PropId intern(const common::BitVector& sig);
  /// Returns the id of `sig`, or kNoProp if never interned.
  PropId find(const common::BitVector& sig) const;

  std::size_t size() const { return signatures_.size(); }
  const common::BitVector& signature(PropId id) const {
    return signatures_.at(id);
  }

  /// Same signatures in the same id order.
  bool operator==(const SignatureIndex& other) const {
    return signatures_ == other.signatures_;
  }

 private:
  /// Mixes the width and each whole limb: BitVector::hash mixes byte by
  /// byte, eight dependent multiplies a limb, on the predictor's per-row
  /// find().
  static std::size_t hash(const common::BitVector& sig);
  /// The slot of `sig` in slots_: the one holding its id, or else the
  /// empty slot where it belongs. slots_ must not be empty.
  std::size_t slotOf(const common::BitVector& sig) const;

  std::vector<common::BitVector> signatures_;
  /// Open addressing with linear probing over a power-of-two table of
  /// ids, kNoProp marking an empty slot, never more than half full.
  std::vector<PropId> slots_;
};

class PropositionDomain {
 public:
  PropositionDomain(trace::VariableSet vars,
                    std::vector<AtomicProposition> atoms);

  const trace::VariableSet& variables() const { return vars_; }
  const std::vector<AtomicProposition>& atoms() const { return atoms_; }

  /// Truth signature of a row (one value per variable), written into
  /// `out`, whose storage is reused: a per-row caller allocates nothing.
  void evalRow(const std::vector<common::BitVector>& row,
               common::BitVector& out) const;
  common::BitVector evalRow(const std::vector<common::BitVector>& row) const;

  /// Returns the PropId of a signature, creating it if new.
  PropId intern(const common::BitVector& sig) { return index_.intern(sig); }
  /// Returns the PropId of a signature, or kNoProp if never interned.
  PropId find(const common::BitVector& sig) const { return index_.find(sig); }

  PropId internRow(const std::vector<common::BitVector>& row);

  std::size_t size() const { return index_.size(); }
  const common::BitVector& signature(PropId id) const {
    return index_.signature(id);
  }

  /// Human-readable rendering in the paper's style: the AND of the atoms
  /// that are true in the signature (e.g. "we=1 & ce=1").
  std::string describe(PropId id) const;
  /// Short name like "p12" used in DOT export and generated code.
  std::string shortName(PropId id) const;

  /// Exact equality (variables, atoms, and interned signatures in id
  /// order); the round-trip contract of serialize::PsmModel is stated in
  /// terms of this comparison.
  bool operator==(const PropositionDomain& other) const {
    return vars_ == other.vars_ && atoms_ == other.atoms_ &&
           index_ == other.index_;
  }

 private:
  trace::VariableSet vars_;
  std::vector<AtomicProposition> atoms_;
  SignatureIndex index_;
};

/// A proposition trace (paper Def. 2): the proposition holding at each
/// instant of a functional trace.
struct PropositionTrace {
  std::vector<PropId> ids;

  std::size_t length() const { return ids.size(); }
  PropId at(std::size_t t) const { return ids.at(t); }
};

}  // namespace psmgen::core
