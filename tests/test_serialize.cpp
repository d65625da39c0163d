// Tests for the versioned PSM model artifact (serialize/psm_artifact.hpp):
// exact round-trip identity on the paper's four demo IPs, byte-for-byte
// determinism of save(load(save(psm))), strict rejection of malformed,
// truncated, corrupted, and version-mismatched input, and a mutation
// fuzzer whose loaded mutants must predict without throwing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
#include "serialize/psm_artifact.hpp"

namespace psmgen {
namespace {

using common::BitVector;

// The flow owns the PSM the simulator points into, so it is trained in
// place rather than returned by value.
void trainIp(core::CharacterizationFlow& flow, ip::IpKind kind,
             std::size_t per_trace_cycles) {
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator est(*device, ip::powerConfig(kind));
  for (const auto& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    auto pair = est.run(*tb, per_trace_cycles);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  flow.build();
}

std::string serializeToString(const core::Psm& psm,
                              const core::PropositionDomain& domain) {
  std::ostringstream os(std::ios::binary);
  serialize::writePsmModel(os, psm, domain);
  return os.str();
}

serialize::PsmModel parse(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return serialize::readPsmModel(is);
}

void expectRoundTrip(ip::IpKind kind) {
  core::CharacterizationFlow flow;
  trainIp(flow, kind, 2000);
  const std::string first = serializeToString(flow.psm(), flow.domain());
  const serialize::PsmModel loaded = parse(first);
  EXPECT_TRUE(loaded.psm == flow.psm());
  EXPECT_TRUE(loaded.domain == flow.domain());
  // save(load(save(psm))) is byte-identical.
  const std::string second = serializeToString(loaded.psm, loaded.domain);
  EXPECT_EQ(second, first);
  const serialize::PsmModel reloaded = parse(second);
  EXPECT_TRUE(reloaded.psm == loaded.psm);
  EXPECT_EQ(serializeToString(reloaded.psm, reloaded.domain), first);
}

TEST(SerializeRoundTrip, Ram) { expectRoundTrip(ip::IpKind::Ram); }
TEST(SerializeRoundTrip, MultSum) { expectRoundTrip(ip::IpKind::MultSum); }
TEST(SerializeRoundTrip, Aes) { expectRoundTrip(ip::IpKind::Aes); }
TEST(SerializeRoundTrip, Camellia) { expectRoundTrip(ip::IpKind::Camellia); }

/// A hand-built model exercising every optional field: multi-pattern
/// alternatives with multiplicities, regression output functions on both
/// Hamming scopes, source intervals, and wide (multi-limb) constants.
struct TinyModel {
  core::PropositionDomain domain;
  core::Psm psm;
};

TinyModel buildTinyModel() {
  trace::VariableSet vars;
  vars.add("en", 1, trace::VarKind::Input);
  vars.add("bus", 100, trace::VarKind::Input);
  vars.add("q", 8, trace::VarKind::Output);

  std::vector<core::AtomicProposition> atoms(2);
  atoms[0].lhs = 0;
  atoms[0].op = core::CmpOp::Eq;
  atoms[0].rhs_const = BitVector(1, 1);
  atoms[1].lhs = 1;
  atoms[1].op = core::CmpOp::Gt;
  atoms[1].rhs_const = BitVector::fromHex("deadbeefdeadbeefcafe", 100);

  core::PropositionDomain domain(vars, atoms);
  // Bit i of a signature is the truth of atom i.
  const core::PropId p0 = domain.intern(BitVector(2, 0b00));
  const core::PropId p1 = domain.intern(BitVector(2, 0b01));
  const core::PropId p2 = domain.intern(BitVector(2, 0b11));

  core::Psm psm;
  core::PowerState idle;
  idle.assertion.alts = {{{p0, p1, true}},
                         {{p0, p2, true}, {p2, p1, false}}};
  idle.assertion.counts = {3, 1};
  idle.power = core::PowerAttr::single(1.0e-3, 1.0e-4, 42);
  idle.intervals = {{0, 9, 0}, {20, 29, 1}};
  idle.initial_count = 2;
  psm.addState(std::move(idle));

  core::PowerState active;
  active.assertion.alts = {{{p1, p0, true}}};
  active.power = core::PowerAttr::merged(
      core::PowerAttr::single(5.0e-3, 2.0e-4, 10),
      core::PowerAttr::single(6.0e-3, 1.0e-4, 14));
  active.regression = stats::LinearFit{4.5e-3, 2.5e-5, 0.93, 0.87, 24};
  active.regression_scope = core::HammingScope::Inputs;
  psm.addState(std::move(active));

  psm.addTransition({0, 1, p1, 3});
  psm.addTransition({1, 0, p0, 2});
  psm.addInitial(0);
  psm.addInitial(1);
  return {std::move(domain), std::move(psm)};
}

TEST(Serialize, TinyModelRoundTripsEveryField) {
  const TinyModel tiny = buildTinyModel();
  const std::string bytes = serializeToString(tiny.psm, tiny.domain);
  const serialize::PsmModel loaded = parse(bytes);
  EXPECT_TRUE(loaded.psm == tiny.psm);
  EXPECT_TRUE(loaded.domain == tiny.domain);
  EXPECT_EQ(serializeToString(loaded.psm, loaded.domain), bytes);
  // Spot-check the optional fields survived.
  ASSERT_TRUE(loaded.psm.state(1).regression.has_value());
  EXPECT_EQ(loaded.psm.state(1).regression->slope, 2.5e-5);
  EXPECT_EQ(loaded.psm.state(1).regression_scope, core::HammingScope::Inputs);
  EXPECT_EQ(loaded.psm.state(0).assertion.counts,
            (std::vector<std::size_t>{3, 1}));
  EXPECT_EQ(loaded.domain.atoms()[1].rhs_const,
            BitVector::fromHex("deadbeefdeadbeefcafe", 100));
}

const std::string& tinyArtifact() {
  static const std::string bytes = [] {
    const TinyModel tiny = buildTinyModel();
    return serializeToString(tiny.psm, tiny.domain);
  }();
  return bytes;
}

void expectFormatError(const std::string& bytes, const std::string& fragment) {
  try {
    parse(bytes);
    FAIL() << "expected FormatError containing '" << fragment << "'";
  } catch (const serialize::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(SerializeErrors, EmptyStream) {
  expectFormatError("", "missing magic");
}

TEST(SerializeErrors, BadMagic) {
  std::string bytes = tinyArtifact();
  bytes[0] = 'X';
  expectFormatError(bytes, "bad magic");
}

TEST(SerializeErrors, UnsupportedVersion) {
  std::string bytes = tinyArtifact();
  bytes[8] = 0x7F;  // version field follows the 8-byte magic
  expectFormatError(bytes, "unsupported format version");
}

TEST(SerializeErrors, TruncationAtEveryRegion) {
  const std::string& bytes = tinyArtifact();
  // Cut inside the magic, the version/length header, the payload, and
  // the trailing checksum: every prefix must be rejected, never parsed.
  const std::size_t cuts[] = {1,  4,        8,  10, 19,
                              21, bytes.size() / 2, bytes.size() - 9,
                              bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    expectFormatError(bytes.substr(0, cut), "truncated");
  }
}

TEST(SerializeErrors, ChecksumCatchesCorruption) {
  std::string bytes = tinyArtifact();
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit
  expectFormatError(bytes, "checksum mismatch");
}

constexpr std::size_t kPayloadBegin = 8 + 4 + 8;  // magic + version + length

/// Recomputes the trailing checksum over an edited payload, so that only
/// the semantic validators stand between the edit and a loaded model.
void reseal(std::string& bytes) {
  const std::size_t payload_size = bytes.size() - kPayloadBegin - 8;
  const std::uint64_t hash =
      serialize::fnv1a(bytes.data() + kPayloadBegin, payload_size);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>(hash >> (8 * i));
  }
}

TEST(SerializeErrors, ValidationCatchesCorruptionBehindFixedChecksum) {
  // Corrupt the first payload byte (the variable-count field) and re-seal
  // the checksum: the semantic validators must still reject the artifact.
  std::string bytes = tinyArtifact();
  bytes[kPayloadBegin] = static_cast<char>(0xFF);
  reseal(bytes);
  EXPECT_THROW(parse(bytes), serialize::FormatError);
}

/// Parses `bytes`, requires a FormatError, and returns it by value so
/// the caller can assert on its structured code/field/offset payload.
serialize::FormatError catchFormatError(const std::string& bytes) {
  try {
    parse(bytes);
  } catch (const serialize::FormatError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a FormatError";
  return serialize::FormatError(serialize::FormatErrorCode::Io, "", 0, "none");
}

TEST(SerializeErrorCodes, BadMagicCarriesCodeAndField) {
  std::string bytes = tinyArtifact();
  bytes[0] = 'X';
  const serialize::FormatError e = catchFormatError(bytes);
  EXPECT_EQ(e.code(), serialize::FormatErrorCode::BadMagic);
  EXPECT_EQ(e.field(), "magic");
  // The rendered message carries the structured payload for bare logs.
  EXPECT_NE(std::string(e.what()).find("code=bad_magic"), std::string::npos)
      << e.what();
  EXPECT_NE(std::string(e.what()).find("field=magic"), std::string::npos);
}

TEST(SerializeErrorCodes, UnsupportedVersionCode) {
  std::string bytes = tinyArtifact();
  bytes[8] = 0x7F;
  const serialize::FormatError e = catchFormatError(bytes);
  EXPECT_EQ(e.code(), serialize::FormatErrorCode::UnsupportedVersion);
  EXPECT_EQ(e.field(), "format version");
}

TEST(SerializeErrorCodes, TruncationCarriesPayloadOffset) {
  const std::string& bytes = tinyArtifact();
  const std::size_t payload_begin = 8 + 4 + 8;  // magic + version + length
  // Cut mid-payload: the decoder reports Truncated at the payload byte
  // position where it ran out, which is <= the number of bytes it got.
  const std::size_t cut = bytes.size() / 2;
  const serialize::FormatError e = catchFormatError(bytes.substr(0, cut));
  EXPECT_EQ(e.code(), serialize::FormatErrorCode::Truncated);
  ASSERT_NE(e.offset(), serialize::FormatError::kNoOffset);
  EXPECT_LE(e.offset(), cut - payload_begin);
  EXPECT_NE(std::string(e.what()).find("offset="), std::string::npos)
      << e.what();
}

TEST(SerializeErrorCodes, ChecksumMismatchCode) {
  std::string bytes = tinyArtifact();
  bytes[bytes.size() / 2] ^= 0x40;
  const serialize::FormatError e = catchFormatError(bytes);
  EXPECT_EQ(e.code(), serialize::FormatErrorCode::ChecksumMismatch);
  EXPECT_EQ(e.field(), "checksum");
}

TEST(SerializeErrorCodes, BadFieldNamesTheField) {
  // Corrupt the first payload byte (the variable-count field) and
  // re-seal the checksum: the semantic validator must name a field and
  // the payload offset it choked on.
  std::string bytes = tinyArtifact();
  bytes[kPayloadBegin] = static_cast<char>(0xFF);
  reseal(bytes);
  const serialize::FormatError e = catchFormatError(bytes);
  EXPECT_EQ(e.code(), serialize::FormatErrorCode::BadField);
  EXPECT_FALSE(e.field().empty());
  EXPECT_NE(e.offset(), serialize::FormatError::kNoOffset);
}

/// The tiny artifact with the little-endian u32 at `payload_offset`
/// replaced by `value` and the checksum re-sealed. `was` is the value
/// the field must hold before the edit, which pins the layout below.
std::string withU32(std::size_t payload_offset, std::uint32_t was,
                    std::uint32_t value) {
  std::string bytes = tinyArtifact();
  const std::size_t at = kPayloadBegin + payload_offset;
  std::uint32_t old = 0;
  for (int i = 0; i < 4; ++i) {
    old |= std::uint32_t{static_cast<std::uint8_t>(bytes[at + i])} << (8 * i);
    bytes[at + i] = static_cast<char>(value >> (8 * i));
  }
  EXPECT_EQ(old, was) << "the tiny artifact's layout changed";
  reseal(bytes);
  return bytes;
}

TEST(SerializeErrors, DeclaredWidthsAreBounded) {
  // Payload layout of the tiny model: the variable count (4), then
  // "en" (4 + 2 + 4 + 1), "bus" (4 + 3 + 4 + 1) and "q" (4 + 1 + 4 + 1),
  // the atom count (4), atom 0 (4 + 1 + 4, then its 1-bit constant:
  // width 4 and one limb 8) and atom 1 (4 + 1 + 4, then its 100-bit
  // constant's width).
  constexpr std::size_t kBusWidth = 4 + 11 + 4 + 3;
  constexpr std::size_t kAtom1Width = 4 + 11 + 12 + 10 + 4 + 9 + 12 + 9;
  for (const std::uint32_t width : {trace::kMaxVariableWidth + 1,
                                    std::uint32_t{0xFFFFFFFF}}) {
    const serialize::FormatError constant =
        catchFormatError(withU32(kAtom1Width, 100, width));
    EXPECT_EQ(constant.code(), serialize::FormatErrorCode::BadField);
    EXPECT_EQ(constant.field(), "atom rhs constant");
    EXPECT_NE(std::string(constant.what()).find("exceeds 65536 bits"),
              std::string::npos)
        << constant.what();

    const serialize::FormatError variable =
        catchFormatError(withU32(kBusWidth, 100, width));
    EXPECT_EQ(variable.code(), serialize::FormatErrorCode::BadField);
    EXPECT_EQ(variable.field(), "variable");
    EXPECT_NE(std::string(variable.what()).find("exceeds 65536 bits"),
              std::string::npos)
        << variable.what();
  }
  // Within the bound, a constant whose limbs the payload does not hold
  // is truncated before any value is built.
  const serialize::FormatError e = catchFormatError(
      withU32(kAtom1Width, 100, trace::kMaxVariableWidth));
  EXPECT_EQ(e.code(), serialize::FormatErrorCode::Truncated);
  EXPECT_EQ(e.field(), "atom rhs constant");
}

TEST(SerializeErrorCodes, TrailingDataCode) {
  const std::string path = testing::TempDir() + "psmgen_trailing_test.psm";
  {
    std::ofstream os(path, std::ios::binary);
    os << tinyArtifact() << "junk";
  }
  try {
    serialize::loadPsmModel(path);
    ADD_FAILURE() << "expected a FormatError";
  } catch (const serialize::FormatError& e) {
    EXPECT_EQ(e.code(), serialize::FormatErrorCode::TrailingData);
  }
  std::remove(path.c_str());
}

TEST(SerializeErrorCodes, IoCodeOnMissingFile) {
  try {
    serialize::loadPsmModel("/nonexistent/psmgen_test.psm");
    FAIL() << "expected a FormatError";
  } catch (const serialize::FormatError& e) {
    EXPECT_EQ(e.code(), serialize::FormatErrorCode::Io);
  }
}

TEST(SerializeErrorCodes, EveryCodeHasAName) {
  using serialize::FormatErrorCode;
  for (const FormatErrorCode code :
       {FormatErrorCode::Io, FormatErrorCode::BadMagic,
        FormatErrorCode::UnsupportedVersion, FormatErrorCode::Truncated,
        FormatErrorCode::ChecksumMismatch, FormatErrorCode::BadField,
        FormatErrorCode::HmmMismatch, FormatErrorCode::TrailingData}) {
    EXPECT_STRNE(serialize::formatErrorCodeName(code), "");
  }
}

TEST(SerializeErrors, FileRoundTripAndTrailingBytes) {
  const TinyModel tiny = buildTinyModel();
  const std::string path = testing::TempDir() + "psmgen_artifact_test.psm";
  serialize::savePsmModel(path, tiny.psm, tiny.domain);
  const serialize::PsmModel loaded = serialize::loadPsmModel(path);
  EXPECT_TRUE(loaded.psm == tiny.psm);
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "junk";
  }
  EXPECT_THROW(serialize::loadPsmModel(path), serialize::FormatError);
  std::remove(path.c_str());
  EXPECT_THROW(serialize::loadPsmModel(path), std::runtime_error);
}

// --- mutation fuzzing ------------------------------------------------------

/// A held-out RAM stream of `rows` rows, for stepping loaded mutants.
trace::FunctionalTrace ramRows(std::size_t rows) {
  auto device = ip::makeDevice(ip::IpKind::Ram);
  power::GateLevelEstimator est(*device, ip::powerConfig(ip::IpKind::Ram));
  auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 0xF022);
  return est.run(*tb, rows).functional;
}

TEST(SerializeProperty, MutatedArtifactsLoadOrReject) {
  // RAM's model has regression states, so a loaded mutant's predictor
  // reaches the Hamming distance as well as the tables built at load.
  core::CharacterizationFlow flow;
  trainIp(flow, ip::IpKind::Ram, 2000);
  ASSERT_TRUE(std::any_of(flow.psm().states().begin(),
                          flow.psm().states().end(),
                          [](const core::PowerState& s) {
                            return s.regression.has_value();
                          }));
  const std::string original = serializeToString(flow.psm(), flow.domain());
  const trace::FunctionalTrace stream = ramRows(128);

  // First the top bit of every payload byte (where the byte is the high
  // byte of a u32 count, the count then claims over 2^31 elements), then
  // 1000 random bit flips. Each mutant is re-sealed, so only the
  // validators stand between it and a loaded model.
  const std::size_t payload = original.size() - kPayloadBegin - 8;
  common::Rng rng(0x5EA1);
  std::size_t rejected = 0;
  std::size_t loaded = 0;
  for (std::size_t k = 0; k < payload + 1000; ++k) {
    const std::size_t at = k < payload ? k : rng.uniform(payload);
    const unsigned bit =
        k < payload ? 7u : static_cast<unsigned>(rng.uniform(8));
    std::string bytes = original;
    bytes[kPayloadBegin + at] ^= static_cast<char>(1u << bit);
    reseal(bytes);
    std::optional<serialize::PsmModel> model;
    try {
      model.emplace(parse(bytes));
    } catch (const serialize::FormatError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "payload byte " << at << " bit " << bit << ": " << e.what();
    }
    ++loaded;
    // Step rows of the declared widths: the stream's own values where the
    // mutant kept a variable's width, random bits elsewhere.
    runtime::OnlinePredictor predictor(*model);
    const trace::VariableSet& vars = model->domain.variables();
    std::vector<BitVector> row(vars.size());
    for (std::size_t t = 0; t < stream.length(); ++t) {
      for (std::size_t v = 0; v < vars.size(); ++v) {
        const bool kept = v < stream.variables().size() &&
                          stream.value(t, static_cast<int>(v)).width() ==
                              vars[v].width;
        row[v] = kept ? stream.value(t, static_cast<int>(v))
                      : rng.bits(vars[v].width);
      }
      ASSERT_NO_THROW(predictor.predictRow(row))
          << "payload byte " << at << " bit " << bit << ", row " << t;
    }
  }
  EXPECT_GE(rejected + loaded, 1000u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
}

}  // namespace
}  // namespace psmgen
