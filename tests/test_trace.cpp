// Unit tests for the trace substrate: variable sets, functional and power
// traces, MRE, CSV round-trips, read errors, lines across read blocks,
// differential mutation tests of the CSV loaders, and the VCD writer.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <optional>
#include <random>
#include <sstream>
#include <streambuf>

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

/// A trace of `rows` rows of uniformly random values over `vars`.
FunctionalTrace randomTrace(const VariableSet& vars, std::size_t rows,
                            std::mt19937_64& rng) {
  FunctionalTrace t(vars);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<BitVector> row;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      BitVector value(vars[v].width);
      for (unsigned b = 0; b < value.width(); ++b) {
        if (rng() % 2) value.setBit(b, true);
      }
      row.push_back(std::move(value));
    }
    t.append(std::move(row));
  }
  return t;
}

std::string toCsv(const FunctionalTrace& t) {
  std::ostringstream os;
  writeFunctionalTrace(os, t);
  return os.str();
}

TEST(VariableSet, AddFindAndKinds) {
  VariableSet vars = demoVars();
  EXPECT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars.find("data"), 1);
  EXPECT_EQ(vars.find("nope"), -1);
  EXPECT_EQ(vars[0].kind, VarKind::Input);
  EXPECT_EQ(vars[1].kind, VarKind::Input);
  EXPECT_EQ(vars[2].kind, VarKind::Output);
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

TEST(FunctionalTrace, ReadRowRefillsAReusedRow) {
  VariableSet vars = demoVars();
  vars.add("key", 129, VarKind::Input);
  std::mt19937_64 rng(11);
  const FunctionalTrace t = randomTrace(vars, 6, rng);
  std::vector<BitVector> row;
  for (std::size_t r = 0; r < t.length(); ++r) {
    t.readRow(r, row);
    ASSERT_EQ(row.size(), vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v) {
      EXPECT_EQ(row[v], t.value(r, static_cast<int>(v))) << r << ", " << v;
    }
    EXPECT_EQ(row, t.step(r));
  }
  EXPECT_THROW(t.readRow(t.length(), row), std::out_of_range);
  EXPECT_THROW(t.value(0, static_cast<int>(vars.size())), std::out_of_range);
  // A row of other widths is reshaped to the trace's widths.
  row = {BitVector(3, 1)};
  t.readRow(0, row);
  EXPECT_EQ(row, t.step(0));

  FunctionalTrace from = t;
  const FunctionalTrace to = std::move(from);
  EXPECT_EQ(to, t);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is tested.
  EXPECT_TRUE(from.empty());
  EXPECT_EQ(from.variables().size(), 0u);
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

/// Serves the first `limit` bytes of `text`, at most 4096 at a time, then
/// throws from underflow(), as libstdc++'s filebuf does when read(2)
/// fails.
class FailingStreamBuf : public std::streambuf {
 public:
  FailingStreamBuf(std::string text, std::size_t limit)
      : text_(std::move(text)), limit_(limit) {}

 protected:
  int_type underflow() override {
    if (served_ == limit_) throw std::runtime_error("injected read failure");
    const std::size_t n = std::min<std::size_t>(4096, limit_ - served_);
    char* begin = text_.data() + served_;
    setg(begin, begin, begin + n);
    served_ += n;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string text_;
  std::size_t limit_;
  std::size_t served_ = 0;
};

/// Asserts that `reader`, given the first half of `text` before a failing
/// read, throws a read error rather than returning what it had.
template <typename Reader>
void expectReadError(Reader reader, const std::string& text) {
  FailingStreamBuf buf(text, text.size() / 2);
  std::istream is(&buf);
  try {
    reader(is);
    FAIL() << "a failed read was taken for the end of the stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace_io: read error after line"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIoErrors, ReadErrorIsNotEndOfFile) {
  const auto streamAll = [](std::istream& is) {
    runtime::StreamingTraceReader reader(is);
    std::vector<BitVector> row;
    while (reader.next(row)) {
    }
  };
  std::mt19937_64 rng(0xBAD);
  // Half of the narrow texts fits in the first block read, which fails;
  // half of the wide ones does not, so the read after a block that was
  // handed out fails.
  for (const bool wide : {false, true}) {
    VariableSet vars;
    vars.add("en", 1, VarKind::Input);
    vars.add("v", wide ? 8192 : 8, VarKind::Input);
    const std::string csv = toCsv(randomTrace(vars, 100, rng));
    PowerTrace power({1.0, 1e8, 1e-14});
    for (int s = 0; s < (wide ? 10000 : 100); ++s) power.append(1e-3 * s);
    std::ostringstream pw;
    writePowerTrace(pw, power);
    expectReadError(readFunctionalTrace, csv);
    expectReadError(streamAll, csv);
    expectReadError(readPowerTrace, pw.str());
  }
}

TEST(TraceIoProperty, RandomizedFunctionalRoundTrip) {
  std::mt19937_64 rng(0x5EED);
  for (int iter = 0; iter < 20; ++iter) {
    VariableSet vars;
    const std::size_t nvars = 1 + rng() % 5;
    for (std::size_t v = 0; v < nvars; ++v) {
      // Widths crossing the 64-bit limb boundaries exercise multi-limb hex,
      // and those above 128 bits values that a BitVector keeps on the heap.
      const unsigned width = 1 + static_cast<unsigned>(rng() % 200);
      std::string name = "v";
      name += std::to_string(v);
      vars.add(name, width, rng() % 2 ? VarKind::Input : VarKind::Output);
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

/// Streams through one reused row, so every row after the first decodes
/// into storage that the row before it left behind.
LoadOutcome loadStreaming(const std::string& text) {
  LoadOutcome out;
  std::istringstream is(text);
  try {
    runtime::StreamingTraceReader reader(is);
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
      base = toCsv(randomTrace(vars, 8, rng));
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

/// Asserts that the batch loader, the streaming reader and referenceRows
/// all read `text` as the rows of `want`.
void expectLoadedAlike(const std::string& text, const FunctionalTrace& want,
                       const std::string& label) {
  std::vector<std::vector<BitVector>> rows;
  for (std::size_t i = 0; i < want.length(); ++i) rows.push_back(want.step(i));
  const LoadOutcome batch = loadBatch(text);
  ASSERT_TRUE(batch.accepted) << label << ": " << batch.error;
  EXPECT_EQ(batch.vars, want.variables()) << label;
  EXPECT_EQ(batch.rows, rows) << label;
  const LoadOutcome streamed = loadStreaming(text);
  ASSERT_TRUE(streamed.accepted) << label << ": " << streamed.error;
  EXPECT_EQ(streamed.rows, rows) << label;
  EXPECT_EQ(referenceRows(text, want.variables()), rows) << label;
}

TEST(TraceIoProperty, LinesAcrossReadBlocksLoadAlike) {
  std::mt19937_64 rng(0xB10C);
  // Rows of one 64-bit cell are 17 bytes (18 with CRLF); 8000 of them
  // span more than two blocks. `pad` leading zeros on the first cell
  // shift every later line break by one byte, so across the pads the
  // first block boundary falls at each offset of a line, '\r' and '\n'
  // included.
  VariableSet narrow;
  narrow.add("v", 64, VarKind::Input);
  const FunctionalTrace rows = randomTrace(narrow, 8000, rng);
  const std::string csv = toCsv(rows);
  ASSERT_GT(csv.size(), 2 * LineSource::kBlockBytes);
  const std::size_t first_cell = csv.find('\n', csv.find('\n') + 1) + 1;
  std::vector<std::pair<std::string, const FunctionalTrace*>> cases;
  for (std::size_t pad = 0; pad < 18; ++pad) {
    std::string text = csv;
    text.insert(first_cell, pad, '0');
    cases.emplace_back(std::move(text), &rows);
  }
  // One line longer than a block: five 65536-bit cells, 81924 bytes.
  VariableSet wide;
  for (int v = 0; v < 5; ++v) {
    wide.add("w" + std::to_string(v), kMaxVariableWidth, VarKind::Input);
  }
  const FunctionalTrace long_lines = randomTrace(wide, 3, rng);
  cases.emplace_back(toCsv(long_lines), &long_lines);
  static_assert(5 * kMaxVariableWidth / 4 > LineSource::kBlockBytes);

  for (const auto& [lf, want] : cases) {
    std::string crlf;
    for (const char c : lf) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    const std::pair<std::string, std::string> endings[] = {{"LF", lf},
                                                           {"CRLF", crlf}};
    for (const auto& [ending, text] : endings) {
      const std::string label =
          ending + ", " + std::to_string(text.size()) + " bytes";
      expectLoadedAlike(text, *want, label);
      // The last line without its line break.
      expectLoadedAlike(text.substr(0, text.size() - 1), *want,
                        label + ", no final line break");
    }
  }
}

/// What a power trace text holds, read independently of trace_io: lines
/// split on '\n' as std::getline splits them, trimmed, blank data lines
/// skipped, and each number read by std::from_chars over the whole string,
/// finite values only. On a malformed text, `error` is a fragment that the
/// loader's message must contain.
struct PowerReference {
  std::optional<PowerTrace> trace;
  std::string error;
};

std::optional<double> referenceReal(std::string_view s) {
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

PowerReference referencePower(const std::string& text) {
  std::vector<std::string> lines = common::split(text, '\n');
  if (text.empty() || text.back() == '\n') lines.pop_back();
  if (lines.empty() || common::trim(lines[0]) != powerTraceHeader()) {
    return {std::nullopt, "missing power trace header"};
  }
  if (lines.size() < 2) return {std::nullopt, "truncated"};
  const std::vector<std::string> fields =
      common::split(common::trim(lines[1]), ',');
  if (fields.size() != 3) return {std::nullopt, "line 2: "};
  PowerParams params;
  double* const slots[] = {&params.vdd, &params.clock_hz, &params.cap_per_bit};
  for (std::size_t f = 0; f < 3; ++f) {
    const std::optional<double> v = referenceReal(fields[f]);
    if (!v) return {std::nullopt, "line 2: "};
    *slots[f] = *v;
  }
  PowerTrace trace(params);
  for (std::size_t l = 2; l < lines.size(); ++l) {
    const std::string_view line = common::trim(lines[l]);
    if (line.empty()) continue;
    const std::optional<double> v = referenceReal(line);
    if (!v) return {std::nullopt, "line " + std::to_string(l + 1) + ": "};
    trace.append(*v);
  }
  return {std::move(trace), ""};
}

TEST(TraceIoProperty, MutatedPowerTracesLoadOrReject) {
  std::mt19937_64 rng(0x90E5);
  std::uniform_real_distribution<double> watts(0.0, 1.0);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::string base;
  for (int m = 0; m < 2000; ++m) {
    if (m % 100 == 0) {
      PowerTrace p({0.5 + watts(rng), 1e6 + 1e9 * watts(rng), 1e-14 * watts(rng)});
      for (int s = 0; s < 8; ++s) p.append(watts(rng) * 1e-2);
      std::ostringstream os;
      writePowerTrace(os, p);
      base = os.str();
    }
    std::string text = base;
    for (std::uint64_t k = 1 + rng() % 3; k-- > 0;) mutate(text, rng);

    const PowerReference want = referencePower(text);
    std::istringstream is(text);
    try {
      const PowerTrace got = readPowerTrace(is);
      ASSERT_TRUE(want.trace.has_value())
          << "mutant " << m << " loaded; the reference expects '" << want.error
          << "'";
      ASSERT_EQ(got, *want.trace) << "mutant " << m;
      ++accepted;
    } catch (const std::runtime_error& e) {
      ASSERT_FALSE(want.trace.has_value())
          << "mutant " << m << " refused: " << e.what();
      ASSERT_NE(std::string(e.what()).find(want.error), std::string::npos)
          << "mutant " << m << ": '" << e.what() << "' lacks '" << want.error
          << "'";
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

/// Decodes `hex` at `width` into `v` by assignHex and by referenceFromHex
/// and asserts the same value, or the same error message.
void expectDecodedAsReference(BitVector& v, const std::string& hex,
                              unsigned width) {
  std::string want_error;
  BitVector want;
  try {
    want = referenceFromHex(hex, width);
  } catch (const std::invalid_argument& e) {
    want_error = e.what();
  }
  try {
    v.assignHex(hex, width);
    ASSERT_EQ(want_error, "") << "'" << hex << "' at width " << width;
    ASSERT_EQ(v, want) << "'" << hex << "' at width " << width;
  } catch (const std::invalid_argument& e) {
    ASSERT_EQ(e.what(), want_error) << "'" << hex << "' at width " << width;
    // Valid but unspecified: no bit above the width is set.
    ASSERT_EQ(v, v.resized(v.width())) << "'" << hex << "' at width " << width;
  }
}

/// ceil(width / 4) random digits, in mixed case, of a value that fits
/// `width` bits.
std::string randomDigits(unsigned width, std::mt19937_64& rng) {
  static constexpr char kDigits[] = "0123456789abcdefABCDEF";
  const unsigned n = (width + 3) / 4;
  std::string hex;
  for (unsigned i = 0; i < n; ++i) hex += kDigits[rng() % 22];
  const unsigned top_bits = width - 4 * (n - 1);
  hex[0] = kDigits[rng() % (1u << top_bits)];
  return hex;
}

TEST(TraceIoProperty, HexCellsDecodeAsTheReferenceDoes) {
  std::mt19937_64 rng(0x4E8);
  BitVector v;  // reused, as a loader reuses a row's values
  // Bytes next to the edges of the digit ranges, as they are and with the
  // high bit set.
  std::vector<int> edges;
  for (const char c : std::string("/09:@AFG`afg\r ,")) {
    edges.push_back(static_cast<unsigned char>(c));
    edges.push_back(static_cast<unsigned char>(c) | 0x80);
  }
  std::vector<int> every(256);
  for (int c = 0; c < 256; ++c) every[c] = c;
  // Each byte value at each position of digit strings on both sides of
  // each multiple of 8 digits. The prefixes add a spare zero, a whole
  // spare group, and a '1' above the width, to the left of which a bad
  // character does not take precedence.
  for (const unsigned width : {1u, 3u, 4u, 5u, 31u, 32u, 33u, 64u, 65u, 128u,
                               129u, 262u}) {
    const std::string digits = randomDigits(width, rng);
    for (const char* prefix : {"", "0", "00000000", "01"}) {
      const std::string base = prefix + digits;
      for (std::size_t at = 0; at < base.size(); ++at) {
        for (const int c : *prefix == '\0' ? every : edges) {
          std::string hex = base;
          hex[at] = static_cast<char>(c);
          expectDecodedAsReference(v, hex, width);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // Random lengths and widths, with a few stray bytes.
  for (int i = 0; i < 20000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng() % 300);
    std::string hex = randomDigits(1 + static_cast<unsigned>(rng() % 320), rng);
    if (rng() % 4 == 0) hex[rng() % hex.size()] = static_cast<char>(rng() % 256);
    expectDecodedAsReference(v, hex, width);
    if (HasFatalFailure()) return;
  }
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
