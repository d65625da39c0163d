// Unit tests for the trace substrate: variable sets, functional and power
// traces, MRE, CSV round-trips, a differential mutation test of the two
// CSV loaders, and the VCD writer.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "common/strings.hpp"
#include "runtime/streaming_reader.hpp"
#include "trace/functional_trace.hpp"
#include "trace/power_trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/vcd_writer.hpp"

namespace psmgen::trace {
namespace {

using common::BitVector;

VariableSet demoVars() {
  VariableSet vars;
  vars.add("en", 1, VarKind::Input);
  vars.add("data", 8, VarKind::Input);
  vars.add("out", 8, VarKind::Output);
  return vars;
}

FunctionalTrace demoTrace() {
  FunctionalTrace t(demoVars());
  t.append({BitVector(1, 0), BitVector(8, 0x00), BitVector(8, 0x00)});
  t.append({BitVector(1, 1), BitVector(8, 0xFF), BitVector(8, 0x0F)});
  t.append({BitVector(1, 1), BitVector(8, 0xF0), BitVector(8, 0x0F)});
  return t;
}

TEST(VariableSet, AddFindAndKinds) {
  VariableSet vars = demoVars();
  EXPECT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars.find("data"), 1);
  EXPECT_EQ(vars.find("nope"), -1);
  EXPECT_EQ(vars.inputs(), (std::vector<int>{0, 1}));
  EXPECT_EQ(vars.outputs(), (std::vector<int>{2}));
  EXPECT_EQ(vars.inputBits(), 9u);
  EXPECT_EQ(vars.outputBits(), 8u);
  EXPECT_THROW(vars.add("en", 1, VarKind::Input), std::invalid_argument);
}

TEST(VariableSet, WidthIsBounded) {
  VariableSet vars;
  EXPECT_EQ(vars.add("widest", kMaxVariableWidth, VarKind::Input), 0);
  EXPECT_THROW(vars.add("wider", kMaxVariableWidth + 1, VarKind::Input),
               std::invalid_argument);
  EXPECT_EQ(vars.size(), 1u);
}

TEST(FunctionalTrace, AppendValidation) {
  FunctionalTrace t(demoVars());
  EXPECT_THROW(t.append({BitVector(1, 0)}), std::invalid_argument);
  EXPECT_THROW(t.append({BitVector(2, 0), BitVector(8, 0), BitVector(8, 0)}),
               std::invalid_argument);
  t.append({BitVector(1, 0), BitVector(8, 0), BitVector(8, 0)});
  EXPECT_EQ(t.length(), 1u);
}

TEST(FunctionalTrace, HammingDistances) {
  FunctionalTrace t = demoTrace();
  EXPECT_EQ(t.inputHammingDistance(0), 0u);
  // step0 -> step1: en toggles (1) + data 0x00->0xFF (8) = 9.
  EXPECT_EQ(t.inputHammingDistance(1), 9u);
  // plus out 0x00->0x0F (4) = 13 for the whole interface.
  EXPECT_EQ(t.rowHammingDistance(1), 13u);
  // step1 -> step2: data 0xFF->0xF0 (4); out unchanged.
  EXPECT_EQ(t.inputHammingDistance(2), 4u);
  EXPECT_EQ(t.rowHammingDistance(2), 4u);
}

TEST(FunctionalTrace, SubtraceAndExtend) {
  FunctionalTrace t = demoTrace();
  FunctionalTrace sub = t.subtrace(1, 2);
  EXPECT_EQ(sub.length(), 2u);
  EXPECT_EQ(sub.value(0, 1), BitVector(8, 0xFF));
  EXPECT_THROW(t.subtrace(2, 5), std::out_of_range);
  FunctionalTrace copy = t;
  copy.extend(sub);
  EXPECT_EQ(copy.length(), 5u);
  FunctionalTrace other{VariableSet{}};
  EXPECT_THROW(copy.extend(other), std::invalid_argument);
}

TEST(PowerTrace, MeanAndEnergy) {
  PowerTrace p({1.0, 100.0e6, 1e-14});
  for (const double w : {1.0, 2.0, 3.0, 4.0}) p.append(w);
  EXPECT_DOUBLE_EQ(p.mean(0, 3), 2.5);
  EXPECT_DOUBLE_EQ(p.mean(1, 2), 2.5);
  EXPECT_THROW(p.mean(2, 1), std::out_of_range);
  EXPECT_THROW(p.mean(0, 9), std::out_of_range);
  EXPECT_NEAR(p.totalEnergy(), 10.0 / 100.0e6, 1e-18);
}

TEST(PowerTrace, MeanRelativeError) {
  EXPECT_DOUBLE_EQ(meanRelativeError({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_NEAR(meanRelativeError({1.1, 2.2}, {1.0, 2.0}), 0.1, 1e-12);
  // Zero-reference instants are skipped.
  EXPECT_NEAR(meanRelativeError({5.0, 1.1}, {0.0, 1.0}), 0.1, 1e-12);
  EXPECT_THROW(meanRelativeError({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(TraceIo, FunctionalRoundTrip) {
  FunctionalTrace t = demoTrace();
  std::stringstream ss;
  writeFunctionalTrace(ss, t);
  const FunctionalTrace back = readFunctionalTrace(ss);
  EXPECT_EQ(back, t);
}

TEST(TraceIo, PowerRoundTrip) {
  PowerTrace p({1.2, 50.0e6, 2e-14});
  p.append(0.001);
  p.append(0.0025);
  std::stringstream ss;
  writePowerTrace(ss, p);
  const PowerTrace back = readPowerTrace(ss);
  EXPECT_EQ(back.params(), p.params());
  ASSERT_EQ(back.length(), 2u);
  EXPECT_DOUBLE_EQ(back.at(1), 0.0025);
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream ss("not a trace\n");
  EXPECT_THROW(readFunctionalTrace(ss), std::runtime_error);
  std::stringstream ss2("also not\n");
  EXPECT_THROW(readPowerTrace(ss2), std::runtime_error);
}

/// Asserts that parsing `text` as a functional (power) trace fails with
/// a message containing every fragment.
template <typename Reader>
void expectParseError(Reader reader, const std::string& text,
                      const std::vector<std::string>& fragments) {
  std::stringstream ss(text);
  try {
    reader(ss);
    FAIL() << "expected a parse error for: " << text;
  } catch (const std::runtime_error& e) {
    for (const auto& fragment : fragments) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "message '" << e.what() << "' lacks '" << fragment << "'";
    }
  }
}

TEST(TraceIoErrors, TruncatedFunctionalFile) {
  expectParseError(readFunctionalTrace, "",
                   {"missing functional trace header"});
  expectParseError(readFunctionalTrace, "# psmgen functional trace v1\n",
                   {"truncated", "variable declaration"});
}

TEST(TraceIoErrors, BadFunctionalHeaderAndDeclaration) {
  expectParseError(readFunctionalTrace, "# psmgen functional trace v99\na:in:1\n",
                   {"missing functional trace header"});
  expectParseError(readFunctionalTrace,
                   "# psmgen functional trace v1\na:in\n",
                   {"line 2", "bad variable declaration"});
  expectParseError(readFunctionalTrace,
                   "# psmgen functional trace v1\na:sideways:1\n",
                   {"line 2", "bad variable kind"});
  expectParseError(readFunctionalTrace,
                   "# psmgen functional trace v1\na:in:zero\n",
                   {"line 2", "bad variable width"});
  expectParseError(readFunctionalTrace,
                   "# psmgen functional trace v1\na:in:1,a:in:2\n",
                   {"line 2", "duplicate"});
}

TEST(TraceIoErrors, DeclaredWidthIsBounded) {
  const auto streaming = [](std::istream& is) {
    runtime::StreamingTraceReader reader(is);
  };
  const std::string header = "# psmgen functional trace v1\n";
  // Not an unsigned number: negative, past 2^32 (which must not wrap to
  // 1), signed or padded.
  for (const char* width : {"-1", "4294967297", "+8", " 8", "0"}) {
    const std::string text = header + "x:in:" + width + "\n0\n";
    expectParseError(readFunctionalTrace, text,
                     {"line 2", "bad variable width"});
    expectParseError(streaming, text, {"line 2", "bad variable width"});
  }
  // A number, but wider than kMaxVariableWidth.
  for (const char* width : {"65537", "4294967295"}) {
    const std::string text = header + "x:in:" + width + "\n0\n";
    expectParseError(readFunctionalTrace, text,
                     {"line 2", "exceeds 65536 bits"});
    expectParseError(streaming, text, {"line 2", "exceeds 65536 bits"});
  }
  std::stringstream widest(header + "x:in:65536\n1\n");
  const FunctionalTrace t = readFunctionalTrace(widest);
  EXPECT_EQ(t.value(0, 0), BitVector(kMaxVariableWidth, 1));
}

TEST(TraceIoErrors, RowErrorsReportTheLine) {
  const std::string preamble =
      "# psmgen functional trace v1\nen:in:1,data:in:8,out:out:8\n";
  expectParseError(readFunctionalTrace, preamble + "0,00,00\n1,ff\n",
                   {"line 4", "arity mismatch", "got 2", "expected 3"});
  expectParseError(readFunctionalTrace, preamble + "0,00,00\n\n0,zz,00\n",
                   {"line 5", "data", "bad value"});
  // A value wider than the declared variable is malformed, not truncated.
  expectParseError(readFunctionalTrace, preamble + "3,00,00\n",
                   {"line 3", "en", "does not fit"});
  // An empty cell (such as a line cut off after a comma) is malformed,
  // not zero.
  expectParseError(readFunctionalTrace, preamble + "1,ff,\n",
                   {"line 3", "bad value for variable 'out'"});
  expectParseError(readFunctionalTrace, preamble + "0,,00\n",
                   {"line 3", "bad value for variable 'data'"});
}

TEST(TraceIoErrors, PowerTraceErrorsReportTheLine) {
  expectParseError(readPowerTrace, "# psmgen power trace v1\n",
                   {"truncated", "power parameter"});
  expectParseError(readPowerTrace, "# psmgen power trace v1\n1.0,2.0\n",
                   {"line 2", "bad power parameter line"});
  expectParseError(readPowerTrace, "# psmgen power trace v1\n1.0,2.0,oops\n",
                   {"line 2", "bad capacitance"});
  expectParseError(readPowerTrace,
                   "# psmgen power trace v1\n1,1e8,1e-14\n0.5\nnope\n",
                   {"line 4", "bad power sample"});
  // Samples are finite decimals: NaN would poison a state's <mu, sigma>
  // and its regression, and writePowerTrace never writes these spellings.
  for (const std::string sample : {"nan", "+0.5", "0x1p-3"}) {
    expectParseError(readPowerTrace,
                     "# psmgen power trace v1\n1,1e8,1e-14\n" + sample + "\n",
                     {"line 3", "bad power sample"});
  }
}

TEST(TraceIoErrors, UnreadablePath) {
  const std::string missing = "/nonexistent-psmgen-dir/trace.csv";
  EXPECT_THROW(loadFunctionalTrace(missing), std::runtime_error);
  EXPECT_THROW(loadPowerTrace(missing), std::runtime_error);
  EXPECT_THROW(saveFunctionalTrace(missing, demoTrace()), std::runtime_error);
  EXPECT_THROW(savePowerTrace(missing, PowerTrace{}), std::runtime_error);
  try {
    loadFunctionalTrace(missing);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }
}

TEST(TraceIoProperty, RandomizedFunctionalRoundTrip) {
  std::mt19937_64 rng(0x5EED);
  for (int iter = 0; iter < 20; ++iter) {
    VariableSet vars;
    const std::size_t nvars = 1 + rng() % 5;
    for (std::size_t v = 0; v < nvars; ++v) {
      // Widths crossing the 64-bit limb boundary exercise multi-limb hex.
      const unsigned width = 1 + static_cast<unsigned>(rng() % 90);
      vars.add("v" + std::to_string(v), width,
               rng() % 2 ? VarKind::Input : VarKind::Output);
    }
    FunctionalTrace t(vars);
    const std::size_t rows = rng() % 40;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<BitVector> row;
      for (std::size_t v = 0; v < nvars; ++v) {
        BitVector value(vars[v].width);
        for (unsigned b = 0; b < value.width(); ++b) {
          if (rng() % 2) value.setBit(b, true);
        }
        row.push_back(std::move(value));
      }
      t.append(std::move(row));
    }
    std::stringstream ss;
    writeFunctionalTrace(ss, t);
    const FunctionalTrace back = readFunctionalTrace(ss);
    ASSERT_EQ(back, t) << "iteration " << iter;
  }
}

TEST(TraceIoProperty, RandomizedPowerRoundTrip) {
  std::mt19937_64 rng(0xCAFE);
  std::uniform_real_distribution<double> watts(0.0, 1.0);
  for (int iter = 0; iter < 20; ++iter) {
    PowerTrace p({0.5 + watts(rng), 1e6 + 1e9 * watts(rng), 1e-14 * watts(rng)});
    const std::size_t samples = rng() % 50;
    for (std::size_t s = 0; s < samples; ++s) p.append(watts(rng) * 1e-2);
    std::stringstream ss;
    writePowerTrace(ss, p);
    const PowerTrace back = readPowerTrace(ss);
    // precision(17) makes the decimal rendering lossless for doubles.
    ASSERT_EQ(back, p) << "iteration " << iter;
  }
}

/// The bit-by-bit hex decoder BitVector::fromHex used before it decoded
/// in place: one bounds-checked setBit per set bit. Kept as the reference
/// that the loaders' in-place decoding must agree with.
BitVector referenceFromHex(const std::string& hex, unsigned width) {
  const unsigned w = width == 0 ? static_cast<unsigned>(hex.size()) * 4 : width;
  BitVector v(w);
  unsigned pos = 0;
  for (std::size_t i = hex.size(); i-- > 0;) {
    const char c = hex[i];
    unsigned nib = 0;
    if (c >= '0' && c <= '9') {
      nib = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nib = static_cast<unsigned>(c - 'A' + 10);
    } else {
      throw std::invalid_argument("BitVector::fromHex: bad character");
    }
    for (unsigned b = 0; b < 4; ++b) {
      if ((nib >> b) & 1u) {
        if (pos + b >= w) {
          throw std::invalid_argument(
              "BitVector::fromHex: value does not fit requested width");
        }
        v.setBit(pos + b, true);
      }
    }
    pos += 4;
  }
  return v;
}

/// What one loader made of a CSV text: its rows, or its error message.
struct LoadOutcome {
  bool accepted = false;
  std::string error;
  VariableSet vars;
  std::vector<std::vector<BitVector>> rows;
};

LoadOutcome loadBatch(const std::string& text) {
  LoadOutcome out;
  std::istringstream is(text);
  try {
    const FunctionalTrace t = readFunctionalTrace(is);
    out.vars = t.variables();
    for (std::size_t i = 0; i < t.length(); ++i) out.rows.push_back(t.step(i));
    out.accepted = true;
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

/// Streams with chunk 3 through one reused row, so every refill decodes
/// into storage that earlier rows left behind.
LoadOutcome loadStreaming(const std::string& text) {
  LoadOutcome out;
  std::istringstream is(text);
  try {
    runtime::StreamingTraceReader reader(is, {3});
    out.vars = reader.variables();
    std::vector<BitVector> row;
    while (reader.next(row)) out.rows.push_back(row);
    out.accepted = true;
  } catch (const std::runtime_error& e) {
    out.error = e.what();
    out.rows.clear();
  }
  return out;
}

/// The data rows of `text` decoded independently of trace_io: lines split
/// on '\n' as std::getline does, blank lines skipped, cells split on ','
/// and decoded by referenceFromHex at the declared widths.
std::vector<std::vector<BitVector>> referenceRows(const std::string& text,
                                                  const VariableSet& vars) {
  std::vector<std::vector<BitVector>> rows;
  const std::vector<std::string> lines = common::split(text, '\n');
  for (std::size_t l = 2; l < lines.size(); ++l) {
    const std::string_view line = common::trim(lines[l]);
    if (line.empty()) continue;
    const std::vector<std::string> cells = common::split(line, ',');
    EXPECT_EQ(cells.size(), vars.size()) << "line " << l + 1;
    std::vector<BitVector> row;
    for (std::size_t i = 0; i < cells.size() && i < vars.size(); ++i) {
      row.push_back(referenceFromHex(cells[i], vars[i].width));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Applies one random byte-level mutation to `text`.
void mutate(std::string& text, std::mt19937_64& rng) {
  static constexpr char kInjected[] = {',', '\n', '\r', ' ', '\t'};
  const std::size_t at = text.empty() ? 0 : rng() % text.size();
  switch (rng() % 4) {
    case 0:  // flip one bit of a byte
      if (!text.empty()) text[at] = static_cast<char>(text[at] ^ (1 << rng() % 8));
      break;
    case 1:  // insert a random byte
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                  static_cast<char>(rng() % 256));
      break;
    case 2:  // delete up to three bytes
      if (!text.empty()) text.erase(at, 1 + rng() % 3);
      break;
    default:  // inject a separator, line ending or blank
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                  kInjected[rng() % sizeof(kInjected)]);
      break;
  }
}

TEST(TraceIoProperty, MutatedCsvLoadersAgree) {
  std::mt19937_64 rng(0xD1FF);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::string base;
  for (int m = 0; m < 2000; ++m) {
    if (m % 100 == 0) {
      // A fresh valid trace every 100 mutants; widths of 1-200 bits cross
      // the 64-bit limb boundaries.
      VariableSet vars;
      const std::size_t nvars = 1 + rng() % 4;
      for (std::size_t v = 0; v < nvars; ++v) {
        vars.add("v" + std::to_string(v),
                 1 + static_cast<unsigned>(rng() % 200),
                 rng() % 2 ? VarKind::Input : VarKind::Output);
      }
      FunctionalTrace t(vars);
      for (std::size_t r = 0; r < 8; ++r) {
        std::vector<BitVector> row;
        for (std::size_t v = 0; v < nvars; ++v) {
          BitVector value(vars[v].width);
          for (unsigned b = 0; b < value.width(); ++b) {
            if (rng() % 2) value.setBit(b, true);
          }
          row.push_back(std::move(value));
        }
        t.append(std::move(row));
      }
      std::ostringstream os;
      writeFunctionalTrace(os, t);
      base = os.str();
    }
    std::string text = base;
    for (std::uint64_t k = 1 + rng() % 3; k-- > 0;) mutate(text, rng);

    const LoadOutcome batch = loadBatch(text);
    const LoadOutcome streamed = loadStreaming(text);
    ASSERT_EQ(batch.accepted, streamed.accepted)
        << "mutant " << m << ": batch '" << batch.error << "', streamed '"
        << streamed.error << "'";
    if (!batch.accepted) {
      ASSERT_EQ(batch.error, streamed.error) << "mutant " << m;
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(batch.vars, streamed.vars) << "mutant " << m;
    ASSERT_EQ(batch.rows, streamed.rows) << "mutant " << m;
    ASSERT_EQ(batch.rows, referenceRows(text, batch.vars)) << "mutant " << m;
  }
  // Both verdicts are exercised, so neither branch passes vacuously.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(Vcd, EmitsDeclarationsAndChanges) {
  FunctionalTrace t = demoTrace();
  std::stringstream ss;
  writeVcd(ss, t, "top");
  const std::string vcd = ss.str();
  EXPECT_NE(vcd.find("$scope module top"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 8"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("#2"), std::string::npos);
  // Value-change encoding for the 8-bit bus.
  EXPECT_NE(vcd.find("b11111111"), std::string::npos);
}

}  // namespace
}  // namespace psmgen::trace
