#include "core/codegen.hpp"

#include <sstream>

#include "common/strings.hpp"

namespace psmgen::core {

namespace {

void emitHeader(std::ostringstream& os, const CodegenOptions& opt) {
  os << "// " << opt.module_name << " - generated by psmgen\n";
  os << "// Power state machine model mined from training traces.\n";
  os << "// Do not edit: regenerate with psmgen::core::generateModel().\n\n";
  if (opt.style == CodegenStyle::SystemC) {
    os << "#include <systemc.h>\n";
  }
  os << "#include <array>\n#include <cstdint>\n#include <vector>\n\n";
}

void emitAtomTable(std::ostringstream& os, const PropositionDomain& domain) {
  const auto& vars = domain.variables();
  os << "// Trace variables (primary inputs first, then outputs):\n";
  for (std::size_t i = 0; i < vars.size(); ++i) {
    os << "//   [" << i << "] " << vars[i].name << " : " << vars[i].width
       << " bit\n";
  }
  os << "\n// Atomic propositions:\n";
  const auto& atoms = domain.atoms();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    os << "//   a" << i << " : " << atoms[i].toString(vars) << "\n";
  }
  os << "\nstruct Atom { int lhs; int op; int rhs_var; std::uint64_t "
        "rhs_lo; };\n";
  os << "static const Atom kAtoms[" << atoms.size() << "] = {\n";
  for (const auto& a : atoms) {
    os << "  {" << a.lhs << ", " << (a.op == CmpOp::Eq ? 0 : 1) << ", "
       << a.rhs_var << ", 0x" << std::hex << a.rhs_const.toUint64() << std::dec
       << "ull},\n";
  }
  os << "};\n\n";
}

void emitSignatures(std::ostringstream& os, const PropositionDomain& domain) {
  os << "// Proposition signatures (one bit per atom):\n";
  os << "static const std::uint64_t kSignatures[" << domain.size() << "]["
     << (domain.atoms().size() + 63) / 64 << "] = {\n";
  const std::size_t words = (domain.atoms().size() + 63) / 64;
  for (std::size_t p = 0; p < domain.size(); ++p) {
    os << "  {";
    const common::BitVector& sig = domain.signature(static_cast<PropId>(p));
    for (std::size_t w = 0; w < words; ++w) {
      os << "0x" << std::hex << sig.limb(w) << std::dec << "ull,";
    }
    os << "},  // " << domain.describe(static_cast<PropId>(p)) << "\n";
  }
  os << "};\n\n";
}

void emitStates(std::ostringstream& os, const Psm& psm,
                const PropositionDomain& domain) {
  os << "// Power states: {mean_watts, has_regression, intercept, slope}\n";
  os << "struct PowerStateRow { double mean; bool reg; double c0; double c1; "
        "};\n";
  os << "static const PowerStateRow kStates[" << psm.stateCount()
     << "] = {\n";
  for (const auto& s : psm.states()) {
    os << "  {" << common::formatDouble(s.power.mean, 9) << ", "
       << (s.regression ? "true" : "false") << ", "
       << common::formatDouble(s.regression ? s.regression->intercept : 0.0, 9)
       << ", "
       << common::formatDouble(s.regression ? s.regression->slope : 0.0, 9)
       << "},  // s" << s.id << " " << toString(s.assertion, domain) << "\n";
  }
  os << "};\n\n";
  os << "// Transitions: {from, to, enabling proposition}\n";
  os << "struct TransitionRow { int from; int to; int enabling; };\n";
  os << "static const TransitionRow kTransitions[" << psm.transitionCount()
     << "] = {\n";
  for (const auto& t : psm.transitions()) {
    os << "  {" << t.from << ", " << t.to << ", " << t.enabling << "},\n";
  }
  os << "};\n\n";
}

void emitHmmTables(std::ostringstream& os, const Psm& psm) {
  const Hmm hmm(psm);
  const std::size_t n = hmm.stateCount();
  os << "// HMM initial distribution pi:\n";
  os << "static const double kPi[" << n << "] = {";
  for (std::size_t i = 0; i < n; ++i) {
    os << common::formatDouble(hmm.pi(static_cast<StateId>(i)), 6) << ", ";
  }
  os << "};\n\n";
  os << "// HMM transition matrix A (row-major):\n";
  os << "static const double kA[" << n * n << "] = {\n";
  for (std::size_t i = 0; i < n; ++i) {
    os << "  ";
    for (std::size_t j = 0; j < n; ++j) {
      os << common::formatDouble(
                hmm.a(static_cast<StateId>(i), static_cast<StateId>(j)), 6)
         << ", ";
    }
    os << "\n";
  }
  os << "};\n\n";
}

void emitEngine(std::ostringstream& os, const CodegenOptions& opt,
                const PropositionDomain& domain, const Psm& psm) {
  const std::size_t nvars = domain.variables().size();
  const char* cls = opt.module_name.c_str();
  if (opt.style == CodegenStyle::SystemC) {
    os << "SC_MODULE(" << cls << ") {\n";
    os << "  sc_in<bool> clk;\n";
    os << "  std::array<sc_in<sc_bv<256>>, " << nvars << "> port;\n";
    os << "  sc_out<double> power_w;\n\n";
    os << "  SC_CTOR(" << cls << ") : state_(-1) {\n";
    os << "    SC_METHOD(on_clock);\n    sensitive << clk.pos();\n  }\n\n";
    os << "  void on_clock() {\n";
    os << "    std::vector<std::uint64_t> row(" << nvars << ");\n";
    os << "    for (std::size_t i = 0; i < " << nvars
       << "; ++i) row[i] = port[i].read().to_uint64();\n";
    os << "    power_w.write(step(row));\n  }\n\n";
  } else {
    os << "class " << cls << " {\n public:\n";
  }
  os << "  // One simulation instant: returns the power estimate [W].\n";
  os << "  double step(const std::vector<std::uint64_t>& values) {\n";
  os << "    const int prop = match_proposition(values);\n";
  os << "    advance(prop, hamming(values));\n";
  os << "    return output();\n";
  os << "  }\n\n";
  os << " private:\n";
  os << "  int match_proposition(const std::vector<std::uint64_t>& v) const;\n";
  os << "  void advance(int prop, unsigned hd);\n";
  os << "  double output() const {\n";
  os << "    const PowerStateRow& s = kStates[state_ < 0 ? 0 : state_];\n";
  os << "    return s.reg ? s.c0 + s.c1 * last_hd_ : s.mean;\n  }\n";
  os << "  unsigned hamming(const std::vector<std::uint64_t>& v);\n";
  os << "  int state_ = -1;\n";
  os << "  unsigned last_hd_ = 0;\n";
  os << "  std::vector<std::uint64_t> prev_;\n";
  os << "};\n\n";
  os << "// " << psm.stateCount() << " states, " << psm.transitionCount()
     << " transitions, " << domain.size() << " propositions over "
     << domain.atoms().size() << " atoms.\n";
}

}  // namespace

std::string generateModel(const Psm& psm, const PropositionDomain& domain,
                          const CodegenOptions& options) {
  std::ostringstream os;
  emitHeader(os, options);
  emitAtomTable(os, domain);
  emitSignatures(os, domain);
  emitStates(os, psm, domain);
  emitHmmTables(os, psm);
  emitEngine(os, options, domain, psm);
  return os.str();
}

}  // namespace psmgen::core
