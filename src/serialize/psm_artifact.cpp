#include "serialize/psm_artifact.hpp"

#include <bit>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "core/hmm.hpp"
#include "trace/variable.hpp"

namespace psmgen::serialize {

namespace {

constexpr char kMagic[8] = {'P', 'S', 'M', 'M', 'O', 'D', 'E', 'L'};

/// Renders the canonical message and throws. Every failure path funnels
/// through here so the code/field/offset triple is never dropped.
[[noreturn]] void fail(FormatErrorCode code, const std::string& field,
                       std::size_t offset, const std::string& what) {
  std::string message = "psm artifact: " + what;
  message += " [code=";
  message += formatErrorCodeName(code);
  if (!field.empty()) message += ", field=" + field;
  if (offset != FormatError::kNoOffset) {
    message += ", offset=" + std::to_string(offset);
  }
  message += ']';
  throw FormatError(code, field, offset, message);
}

// --- encoding ------------------------------------------------------------

class Encoder {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  void bits(const common::BitVector& v) {
    u32(v.width());
    const std::size_t limbs = (v.width() + 63) / 64;
    for (std::size_t i = 0; i < limbs; ++i) u64(v.limb(i));
  }

  const std::string& buffer() const { return out_; }

 private:
  std::string out_;
};

// --- decoding ------------------------------------------------------------

class Decoder {
 public:
  explicit Decoder(const std::string& payload) : data_(payload) {}

  std::uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }
  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }
  std::string str(const char* what) {
    const std::uint32_t len = u32(what);
    need(len, what);
    std::string s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }
  common::BitVector bits(const char* what) {
    const std::uint32_t width = u32(what);
    if (width > trace::kMaxVariableWidth) {
      bad(what, std::string(what) + ": bit vector width " +
                    std::to_string(width) + " exceeds " +
                    std::to_string(trace::kMaxVariableWidth) + " bits");
    }
    const std::size_t limbs = (std::size_t{width} + 63) / 64;
    need(8 * limbs, what);
    common::BitVector v(width);
    for (std::size_t i = 0; i < limbs; ++i) {
      const std::uint64_t limb = u64(what);
      const unsigned base = static_cast<unsigned>(i * 64);
      for (unsigned b = 0; b < 64; ++b) {
        if (!((limb >> b) & 1u)) continue;
        if (base + b >= width) {
          bad(what, std::string(what) + ": bit vector has bits set beyond "
                                        "width " + std::to_string(width));
        }
        v.setBit(base + b, true);
      }
    }
    return v;
  }

  /// A u32 element count, bounded by how many elements of at least
  /// `min_bytes` each the rest of the payload can hold: a corrupted count
  /// fails here, before anything is reserved for it.
  std::uint32_t count(const char* what, std::size_t min_bytes) {
    const std::uint32_t n = u32(what);
    const std::size_t left = data_.size() - pos_;
    if (n > left / min_bytes) {
      bad(what, std::string(what) + " " + std::to_string(n) +
                    " cannot fit in the " + std::to_string(left) +
                    " payload bytes left");
    }
    return n;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t offset() const { return pos_; }

  /// Semantic failure at the current decode position (the field decoded,
  /// but its value is invalid).
  [[noreturn]] void bad(const std::string& field,
                        const std::string& what) const {
    fail(FormatErrorCode::BadField, field, pos_, what);
  }

 private:
  void need(std::size_t n, const char* what) {
    if (data_.size() - pos_ < n) {
      fail(FormatErrorCode::Truncated, what, pos_,
           "truncated payload at byte " + std::to_string(pos_) +
               " while reading " + what);
    }
  }

  const std::string& data_;
  std::size_t pos_ = 0;
};

// --- sections ------------------------------------------------------------

// The fewest bytes that encode one element of a counted list.
constexpr std::size_t kAtomMinBytes = 4 + 1 + 4 + 4;  // lhs, op, rhs, width
constexpr std::size_t kAltMinBytes = 4;               // its pattern count
constexpr std::size_t kPatternBytes = 4 + 4 + 1;      // p, q, kind
constexpr std::size_t kMultiplicityBytes = 8;
constexpr std::size_t kIntervalBytes = 8 + 8 + 4;  // start, stop, trace id

void encodePattern(Encoder& enc, const core::Pattern& p) {
  enc.i32(p.p);
  enc.i32(p.q);
  enc.u8(p.is_until ? 1 : 0);
}

core::Pattern decodePattern(Decoder& dec, std::size_t prop_count) {
  core::Pattern p;
  p.p = dec.i32("pattern entry proposition");
  p.q = dec.i32("pattern exit proposition");
  const auto check = [&](core::PropId id, const char* which) {
    if (id != core::kNoProp &&
        (id < 0 || static_cast<std::size_t>(id) >= prop_count)) {
      dec.bad(std::string("pattern ") + which + " proposition",
              std::string("pattern ") + which + " proposition id " +
                  std::to_string(id) + " out of range (domain has " +
                  std::to_string(prop_count) + " propositions)");
    }
  };
  check(p.p, "entry");
  check(p.q, "exit");
  const std::uint8_t is_until = dec.u8("pattern kind");
  if (is_until > 1) dec.bad("pattern kind", "bad pattern kind byte");
  p.is_until = is_until == 1;
  return p;
}

void encodeDomain(Encoder& enc, const core::PropositionDomain& domain) {
  const auto& vars = domain.variables().all();
  enc.u32(static_cast<std::uint32_t>(vars.size()));
  for (const auto& v : vars) {
    enc.str(v.name);
    enc.u32(v.width);
    enc.u8(v.kind == trace::VarKind::Input ? 0 : 1);
  }
  enc.u32(static_cast<std::uint32_t>(domain.atoms().size()));
  for (const auto& a : domain.atoms()) {
    enc.i32(a.lhs);
    enc.u8(a.op == core::CmpOp::Eq ? 0 : 1);
    enc.i32(a.rhs_var);
    enc.bits(a.rhs_const);
  }
  enc.u32(static_cast<std::uint32_t>(domain.size()));
  for (core::PropId id = 0; id < static_cast<core::PropId>(domain.size());
       ++id) {
    // The bits in ceil(width / 8) bytes, least significant first.
    const common::BitVector& sig = domain.signature(id);
    enc.u32(sig.width());
    for (std::size_t byte = 0; byte < (sig.width() + 7) / 8; ++byte) {
      enc.u8(static_cast<std::uint8_t>(sig.limb(byte / 8) >> (8 * (byte % 8))));
    }
  }
}

core::PropositionDomain decodeDomain(Decoder& dec) {
  const std::uint32_t var_count = dec.u32("variable count");
  trace::VariableSet vars;
  for (std::uint32_t i = 0; i < var_count; ++i) {
    const std::string name = dec.str("variable name");
    const std::uint32_t width = dec.u32("variable width");
    const std::uint8_t kind = dec.u8("variable kind");
    if (kind > 1) {
      dec.bad("variable kind", "bad variable kind byte for '" + name + "'");
    }
    try {
      vars.add(name, width,
               kind == 0 ? trace::VarKind::Input : trace::VarKind::Output);
    } catch (const std::invalid_argument& e) {
      dec.bad("variable", e.what());
    }
  }
  const std::uint32_t atom_count = dec.count("atom count", kAtomMinBytes);
  std::vector<core::AtomicProposition> atoms;
  atoms.reserve(atom_count);
  for (std::uint32_t i = 0; i < atom_count; ++i) {
    core::AtomicProposition a;
    a.lhs = dec.i32("atom lhs variable");
    if (a.lhs < 0 || static_cast<std::uint32_t>(a.lhs) >= var_count) {
      dec.bad("atom lhs variable",
              "atom " + std::to_string(i) + " references variable " +
                  std::to_string(a.lhs) + " outside the " +
                  std::to_string(var_count) + "-variable set");
    }
    const std::uint8_t op = dec.u8("atom operator");
    if (op > 1) dec.bad("atom operator", "bad atom operator byte");
    a.op = op == 0 ? core::CmpOp::Eq : core::CmpOp::Gt;
    a.rhs_var = dec.i32("atom rhs variable");
    if (a.rhs_var != -1 &&
        (a.rhs_var < 0 || static_cast<std::uint32_t>(a.rhs_var) >= var_count)) {
      dec.bad("atom rhs variable",
              "atom " + std::to_string(i) + " rhs variable out of range");
    }
    a.rhs_const = dec.bits("atom rhs constant");
    atoms.push_back(std::move(a));
  }
  core::PropositionDomain domain(std::move(vars), std::move(atoms));
  const std::uint32_t prop_count = dec.u32("proposition count");
  for (std::uint32_t i = 0; i < prop_count; ++i) {
    const std::uint32_t nbits = dec.u32("signature bit count");
    if (nbits != atom_count) {
      dec.bad("signature bit count",
              "signature " + std::to_string(i) + " has " +
                  std::to_string(nbits) + " bits but the domain has " +
                  std::to_string(atom_count) + " atoms");
    }
    common::BitVector sig(nbits);
    std::uint8_t byte = 0;
    for (unsigned bit = 0; bit < nbits; ++bit) {
      if (bit % 8 == 0) byte = dec.u8("signature bits");
      if ((byte >> (bit % 8)) & 1u) sig.setBit(bit, true);
    }
    if (domain.find(sig) != core::kNoProp) {
      dec.bad("proposition signature",
              "duplicate proposition signature at id " + std::to_string(i));
    }
    const core::PropId id = domain.intern(sig);
    if (id != static_cast<core::PropId>(i)) {
      dec.bad("proposition id", "proposition ids are not dense");
    }
  }
  return domain;
}

void encodePsm(Encoder& enc, const core::Psm& psm) {
  enc.u32(static_cast<std::uint32_t>(psm.stateCount()));
  for (const core::PowerState& s : psm.states()) {
    enc.i32(s.id);
    enc.u32(static_cast<std::uint32_t>(s.assertion.alts.size()));
    for (const core::PatternSeq& seq : s.assertion.alts) {
      enc.u32(static_cast<std::uint32_t>(seq.size()));
      for (const core::Pattern& p : seq) encodePattern(enc, p);
    }
    enc.u32(static_cast<std::uint32_t>(s.assertion.counts.size()));
    for (const std::size_t c : s.assertion.counts) enc.u64(c);
    enc.f64(s.power.mean);
    enc.f64(s.power.stddev);
    enc.u64(s.power.n);
    enc.f64(s.power.min_mean);
    enc.f64(s.power.max_mean);
    enc.u32(static_cast<std::uint32_t>(s.intervals.size()));
    for (const core::Interval& iv : s.intervals) {
      enc.u64(iv.start);
      enc.u64(iv.stop);
      enc.i32(iv.trace_id);
    }
    enc.u8(s.regression ? 1 : 0);
    if (s.regression) {
      enc.f64(s.regression->intercept);
      enc.f64(s.regression->slope);
      enc.f64(s.regression->pearson_r);
      enc.f64(s.regression->r_squared);
      enc.u64(s.regression->n);
    }
    enc.u8(s.regression_scope == core::HammingScope::Inputs ? 0 : 1);
    enc.u64(s.initial_count);
  }
  enc.u32(static_cast<std::uint32_t>(psm.transitions().size()));
  for (const core::Transition& t : psm.transitions()) {
    enc.i32(t.from);
    enc.i32(t.to);
    enc.i32(t.enabling);
    enc.u64(t.count);
  }
  enc.u32(static_cast<std::uint32_t>(psm.initialStates().size()));
  for (const core::StateId s : psm.initialStates()) enc.i32(s);
}

core::Psm decodePsm(Decoder& dec, std::size_t prop_count) {
  core::Psm psm;
  const std::uint32_t state_count = dec.u32("state count");
  for (std::uint32_t i = 0; i < state_count; ++i) {
    const std::int32_t id = dec.i32("state id");
    if (id != static_cast<std::int32_t>(i)) {
      dec.bad("state id", "state ids are not dense (state " +
                              std::to_string(i) + " declares id " +
                              std::to_string(id) + ")");
    }
    core::PowerState s;
    const std::uint32_t alt_count =
        dec.count("assertion alternative count", kAltMinBytes);
    s.assertion.alts.reserve(alt_count);
    for (std::uint32_t a = 0; a < alt_count; ++a) {
      const std::uint32_t pat_count = dec.count("pattern count", kPatternBytes);
      core::PatternSeq seq;
      seq.reserve(pat_count);
      for (std::uint32_t k = 0; k < pat_count; ++k) {
        seq.push_back(decodePattern(dec, prop_count));
      }
      s.assertion.alts.push_back(std::move(seq));
    }
    const std::uint32_t counts_size =
        dec.count("alternative multiplicities", kMultiplicityBytes);
    if (counts_size != 0 && counts_size != alt_count) {
      dec.bad("alternative multiplicities",
              "state " + std::to_string(i) + " has " +
                  std::to_string(counts_size) + " multiplicities for " +
                  std::to_string(alt_count) + " alternatives");
    }
    s.assertion.counts.reserve(counts_size);
    for (std::uint32_t c = 0; c < counts_size; ++c) {
      s.assertion.counts.push_back(dec.u64("alternative multiplicity"));
    }
    s.power.mean = dec.f64("power mean");
    s.power.stddev = dec.f64("power stddev");
    s.power.n = dec.u64("power sample count");
    s.power.min_mean = dec.f64("power min mean");
    s.power.max_mean = dec.f64("power max mean");
    const std::uint32_t interval_count =
        dec.count("interval count", kIntervalBytes);
    s.intervals.reserve(interval_count);
    for (std::uint32_t k = 0; k < interval_count; ++k) {
      core::Interval iv;
      iv.start = dec.u64("interval start");
      iv.stop = dec.u64("interval stop");
      iv.trace_id = dec.i32("interval trace id");
      s.intervals.push_back(iv);
    }
    const std::uint8_t has_regression = dec.u8("regression flag");
    if (has_regression > 1) {
      dec.bad("regression flag", "bad regression flag byte");
    }
    if (has_regression == 1) {
      stats::LinearFit fit;
      fit.intercept = dec.f64("regression intercept");
      fit.slope = dec.f64("regression slope");
      fit.pearson_r = dec.f64("regression pearson r");
      fit.r_squared = dec.f64("regression r squared");
      fit.n = dec.u64("regression sample count");
      s.regression = fit;
    }
    const std::uint8_t scope = dec.u8("regression scope");
    if (scope > 1) dec.bad("regression scope", "bad regression scope byte");
    s.regression_scope =
        scope == 0 ? core::HammingScope::Inputs : core::HammingScope::Interface;
    s.initial_count = dec.u64("initial count");
    psm.addState(std::move(s));
  }
  const std::uint32_t transition_count = dec.u32("transition count");
  for (std::uint32_t i = 0; i < transition_count; ++i) {
    core::Transition t;
    t.from = dec.i32("transition source");
    t.to = dec.i32("transition target");
    t.enabling = dec.i32("transition enabling proposition");
    if (t.enabling != core::kNoProp &&
        (t.enabling < 0 || static_cast<std::size_t>(t.enabling) >= prop_count)) {
      dec.bad("transition enabling proposition",
              "transition " + std::to_string(i) +
                  " enabling proposition out of range");
    }
    t.count = dec.u64("transition multiplicity");
    try {
      psm.addTransition(t);
    } catch (const std::invalid_argument&) {
      dec.bad("transition endpoints",
              "transition " + std::to_string(i) + " (" +
                  std::to_string(t.from) + " -> " + std::to_string(t.to) +
                  ") references a state outside the " +
                  std::to_string(state_count) + "-state PSM");
    }
  }
  const std::uint32_t initials_count = dec.u32("initial state count");
  for (std::uint32_t i = 0; i < initials_count; ++i) {
    const core::StateId s = dec.i32("initial state id");
    try {
      psm.addInitial(s);
    } catch (const std::invalid_argument&) {
      dec.bad("initial state id",
              "initial state id " + std::to_string(s) + " out of range");
    }
  }
  return psm;
}

void encodeHmm(Encoder& enc, const core::Hmm& hmm) {
  const std::size_t n = hmm.stateCount();
  enc.u32(static_cast<std::uint32_t>(n));
  enc.u32(static_cast<std::uint32_t>(hmm.eventCount()));
  for (core::EventId e = 0; e < static_cast<core::EventId>(hmm.eventCount());
       ++e) {
    const core::PatternSeq& seq = hmm.event(e);
    enc.u32(static_cast<std::uint32_t>(seq.size()));
    for (const core::Pattern& p : seq) encodePattern(enc, p);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      enc.f64(hmm.a(static_cast<core::StateId>(i),
                    static_cast<core::StateId>(j)));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    enc.f64(hmm.pi(static_cast<core::StateId>(i)));
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<std::pair<core::EventId, double>> row;
    for (core::EventId e = 0; e < static_cast<core::EventId>(hmm.eventCount());
         ++e) {
      const double p = hmm.b(static_cast<core::StateId>(j), e);
      if (p != 0.0) row.emplace_back(e, p);
    }
    enc.u32(static_cast<std::uint32_t>(row.size()));
    for (const auto& [e, p] : row) {
      enc.i32(e);
      enc.f64(p);
    }
  }
}

/// Decodes the redundant HMM section and checks it bit-for-bit against
/// the HMM re-derived from the decoded PSM: a mismatch means corruption
/// or an incompatible producer, never a tolerable drift.
void decodeAndVerifyHmm(Decoder& dec, const core::Hmm& derived,
                        std::size_t prop_count) {
  const auto mismatch = [&dec](const std::string& field,
                               const std::string& what) {
    fail(FormatErrorCode::HmmMismatch, field, dec.offset(), what);
  };
  const std::uint32_t n = dec.u32("hmm state count");
  if (n != derived.stateCount()) {
    mismatch("hmm state count",
             "hmm state count " + std::to_string(n) + " does not match the " +
                 std::to_string(derived.stateCount()) + "-state PSM");
  }
  const std::uint32_t event_count = dec.u32("hmm event count");
  if (event_count != derived.eventCount()) {
    mismatch("hmm event count",
             "hmm event count does not match the PSM's assertion set");
  }
  for (std::uint32_t e = 0; e < event_count; ++e) {
    const std::uint32_t pat_count =
        dec.count("hmm event length", kPatternBytes);
    core::PatternSeq seq;
    seq.reserve(pat_count);
    for (std::uint32_t k = 0; k < pat_count; ++k) {
      seq.push_back(decodePattern(dec, prop_count));
    }
    if (!(seq == derived.event(static_cast<core::EventId>(e)))) {
      mismatch("hmm event", "hmm event " + std::to_string(e) +
                                " does not match the PSM's assertion set");
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (dec.f64("hmm transition probability") !=
          derived.a(static_cast<core::StateId>(i),
                    static_cast<core::StateId>(j))) {
        mismatch("hmm transition probability",
                 "hmm transition matrix does not match the PSM (corrupted "
                 "artifact or incompatible producer)");
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (dec.f64("hmm initial probability") !=
        derived.pi(static_cast<core::StateId>(i))) {
      mismatch("hmm initial probability",
               "hmm initial distribution does not match the PSM");
    }
  }
  for (std::uint32_t j = 0; j < n; ++j) {
    std::vector<std::pair<core::EventId, double>> expected;
    for (core::EventId e = 0; e < static_cast<core::EventId>(event_count);
         ++e) {
      const double p = derived.b(static_cast<core::StateId>(j), e);
      if (p != 0.0) expected.emplace_back(e, p);
    }
    const std::uint32_t entries = dec.u32("hmm emission row size");
    if (entries != expected.size()) {
      mismatch("hmm emission row size",
               "hmm emission row " + std::to_string(j) +
                   " does not match the PSM");
    }
    for (std::uint32_t k = 0; k < entries; ++k) {
      const core::EventId e = dec.i32("hmm emission event");
      const double p = dec.f64("hmm emission probability");
      if (e != expected[k].first || p != expected[k].second) {
        mismatch("hmm emission row",
                 "hmm emission row " + std::to_string(j) +
                     " does not match the PSM");
      }
    }
  }
}

}  // namespace

const char* formatErrorCodeName(FormatErrorCode code) {
  switch (code) {
    case FormatErrorCode::Io: return "io";
    case FormatErrorCode::BadMagic: return "bad_magic";
    case FormatErrorCode::UnsupportedVersion: return "unsupported_version";
    case FormatErrorCode::Truncated: return "truncated";
    case FormatErrorCode::ChecksumMismatch: return "checksum_mismatch";
    case FormatErrorCode::BadField: return "bad_field";
    case FormatErrorCode::HmmMismatch: return "hmm_mismatch";
    case FormatErrorCode::TrailingData: return "trailing_data";
  }
  return "unknown";
}

FormatError::FormatError(FormatErrorCode code, std::string field,
                         std::size_t offset, const std::string& message)
    : std::runtime_error(message),
      code_(code),
      field_(std::move(field)),
      offset_(offset) {}

std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

void writePsmModel(std::ostream& os, const core::Psm& psm,
                   const core::PropositionDomain& domain) {
  Encoder enc;
  encodeDomain(enc, domain);
  encodePsm(enc, psm);
  encodeHmm(enc, core::Hmm(psm));
  const std::string& payload = enc.buffer();

  Encoder header;
  header.u32(kFormatVersion);
  header.u64(payload.size());
  os.write(kMagic, sizeof kMagic);
  os.write(header.buffer().data(),
           static_cast<std::streamsize>(header.buffer().size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  Encoder footer;
  footer.u64(fnv1a(payload.data(), payload.size()));
  os.write(footer.buffer().data(),
           static_cast<std::streamsize>(footer.buffer().size()));
  if (!os) {
    fail(FormatErrorCode::Io, "", FormatError::kNoOffset, "write failed");
  }
}

PsmModel readPsmModel(std::istream& is) {
  char magic[sizeof kMagic] = {};
  is.read(magic, sizeof magic);
  if (is.gcount() != sizeof magic) {
    fail(FormatErrorCode::Truncated, "magic", FormatError::kNoOffset,
         "truncated artifact: missing magic");
  }
  if (std::char_traits<char>::compare(magic, kMagic, sizeof kMagic) != 0) {
    fail(FormatErrorCode::BadMagic, "magic", FormatError::kNoOffset,
         "bad magic: not a psmgen model artifact");
  }
  char fixed[12] = {};
  is.read(fixed, sizeof fixed);
  if (is.gcount() != sizeof fixed) {
    fail(FormatErrorCode::Truncated, "version/length header",
         FormatError::kNoOffset,
         "truncated artifact: missing version/length header");
  }
  const std::string fixed_str(fixed, sizeof fixed);
  Decoder header(fixed_str);
  const std::uint32_t version = header.u32("format version");
  if (version != kFormatVersion) {
    fail(FormatErrorCode::UnsupportedVersion, "format version",
         FormatError::kNoOffset,
         "unsupported format version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kFormatVersion) +
             ")");
  }
  const std::uint64_t length = header.u64("payload length");
  constexpr std::uint64_t kMaxPayload = 1ull << 32;
  if (length > kMaxPayload) {
    fail(FormatErrorCode::BadField, "payload length", FormatError::kNoOffset,
         "implausible payload length " + std::to_string(length));
  }
  std::string payload(length, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(length));
  if (static_cast<std::uint64_t>(is.gcount()) != length) {
    fail(FormatErrorCode::Truncated, "payload",
         static_cast<std::size_t>(is.gcount()),
         "truncated artifact: payload declares " + std::to_string(length) +
             " bytes but only " + std::to_string(is.gcount()) +
             " are present");
  }
  char hash_bytes[8] = {};
  is.read(hash_bytes, sizeof hash_bytes);
  if (is.gcount() != sizeof hash_bytes) {
    fail(FormatErrorCode::Truncated, "checksum", FormatError::kNoOffset,
         "truncated artifact: missing checksum");
  }
  const std::string hash_str(hash_bytes, sizeof hash_bytes);
  Decoder hash_dec(hash_str);
  const std::uint64_t stored_hash = hash_dec.u64("checksum");
  if (stored_hash != fnv1a(payload.data(), payload.size())) {
    fail(FormatErrorCode::ChecksumMismatch, "checksum",
         FormatError::kNoOffset, "checksum mismatch: artifact is corrupted");
  }

  Decoder dec(payload);
  core::PropositionDomain domain = decodeDomain(dec);
  core::Psm psm = decodePsm(dec, domain.size());
  decodeAndVerifyHmm(dec, core::Hmm(psm), domain.size());
  if (!dec.done()) {
    fail(FormatErrorCode::TrailingData, "payload tail", dec.offset(),
         "trailing garbage: " +
             std::to_string(payload.size() - dec.offset()) +
             " unread bytes after the hmm section");
  }
  return PsmModel{std::move(domain), std::move(psm)};
}

void savePsmModel(const std::string& path, const core::Psm& psm,
                  const core::PropositionDomain& domain) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    fail(FormatErrorCode::Io, "", FormatError::kNoOffset,
         "cannot open " + path);
  }
  writePsmModel(os, psm, domain);
}

PsmModel loadPsmModel(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    fail(FormatErrorCode::Io, "", FormatError::kNoOffset,
         "cannot open " + path);
  }
  PsmModel model = readPsmModel(is);
  if (is.peek() != std::char_traits<char>::eof()) {
    fail(FormatErrorCode::TrailingData, "artifact tail",
         FormatError::kNoOffset,
         "trailing bytes after the artifact in " + path);
  }
  return model;
}

}  // namespace psmgen::serialize
