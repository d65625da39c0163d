#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"

namespace psmgen::trace {

namespace {
const std::string kFunctionalHeader = "# psmgen functional trace v1";
const std::string kPowerHeader = "# psmgen power trace v1";

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("trace_io: line " + std::to_string(line_no) + ": " +
                           what);
}

VarKind parseKind(const std::string& s, std::size_t line_no) {
  if (s == "in") return VarKind::Input;
  if (s == "out") return VarKind::Output;
  fail(line_no, "bad variable kind: " + s);
}

std::string kindName(VarKind k) {
  return k == VarKind::Input ? "in" : "out";
}

/// A finite double as std::from_chars reads it: no blanks, no leading
/// '+', no hex, no nan or inf.
double parseDouble(std::string_view s, std::size_t line_no,
                   const std::string& what) {
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::optional<double> v = common::parseReal(s, -kMax, kMax);
  if (!v) fail(line_no, "bad " + what + ": " + std::string(s));
  return *v;
}

/// Cells of a data row; only the error paths count them.
std::size_t cellCount(std::string_view line) {
  return 1 + static_cast<std::size_t>(std::count(line.begin(), line.end(), ','));
}

[[noreturn]] void failArity(std::string_view line, std::size_t expected,
                            std::size_t line_no) {
  fail(line_no, "row arity mismatch (got " + std::to_string(cellCount(line)) +
                    " cells, expected " + std::to_string(expected) + ")");
}

VariableSet parseVariableDeclaration(std::string_view line,
                                     std::size_t line_no) {
  VariableSet vars;
  for (const auto& col : common::split(common::trim(line), ',')) {
    const auto fields = common::split(col, ':');
    if (fields.size() != 3) {
      fail(line_no, "bad variable declaration: " + col);
    }
    const std::optional<long long> width = common::parseInteger(
        fields[2], 1, std::numeric_limits<unsigned>::max());
    if (!width) fail(line_no, "bad variable width: " + col);
    try {
      vars.add(fields[0], static_cast<unsigned>(*width),
               parseKind(fields[1], line_no));
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
  }
  return vars;
}

/// Decodes one trimmed data row into `row` in a single walk: each cell
/// ends at the first ',' after the previous one. A row with the wrong
/// number of cells is an arity error even where a cell before the
/// mismatch is bad.
void parseFunctionalRow(std::string_view line, const VariableSet& vars,
                        std::size_t line_no,
                        std::vector<common::BitVector>& row) {
  const std::vector<VariableDef>& defs = vars.all();
  const std::size_t n = defs.size();
  row.resize(n);
  std::size_t start = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t comma = line.find(',', start);
    if ((comma == std::string_view::npos) != (i + 1 == n)) {
      failArity(line, n, line_no);
    }
    const std::string_view cell = line.substr(start, comma - start);
    start = comma + 1;
    try {
      if (cell.empty()) throw std::invalid_argument("empty cell");
      row[i].assignHex(cell, defs[i].width);
    } catch (const std::exception& e) {
      if (cellCount(line) != n) failArity(line, n, line_no);
      fail(line_no, "bad value for variable '" + defs[i].name +
                        "': " + e.what());
    }
  }
}
}  // namespace

const std::string& functionalTraceHeader() { return kFunctionalHeader; }
const std::string& powerTraceHeader() { return kPowerHeader; }

std::string formatVariableDeclaration(const VariableSet& vars) {
  std::vector<std::string> cols;
  cols.reserve(vars.size());
  for (const auto& v : vars.all()) {
    cols.push_back(v.name + ":" + kindName(v.kind) + ":" +
                   std::to_string(v.width));
  }
  return common::join(cols, ",");
}

LineSource::LineSource(std::istream& is)
    : is_(&is),
      buf_(std::make_unique_for_overwrite<char[]>(kBlockBytes)),
      size_(kBlockBytes) {}

bool LineSource::next(std::string_view& line) {
  for (;;) {
    const char* text = buf_.get() + begin_;
    const std::size_t pending = end_ - begin_;
    if (const void* nl = std::memchr(text, '\n', pending)) {
      const auto length =
          static_cast<std::size_t>(static_cast<const char*>(nl) - text);
      line = {text, length};
      begin_ += length + 1;
      ++line_no_;
      return true;
    }
    if (eof_) {
      if (pending == 0) return false;
      line = {text, pending};
      begin_ = end_;
      ++line_no_;
      return true;
    }
    fill();
  }
}

void LineSource::fill() {
  // The unfinished line moves to the front and the next block is read
  // behind it; only a line that fills the whole buffer grows it.
  const std::size_t kept = end_ - begin_;
  if (kept == size_) {
    auto bigger = std::make_unique_for_overwrite<char[]>(size_ + kBlockBytes);
    std::memcpy(bigger.get(), buf_.get(), kept);
    buf_ = std::move(bigger);
    size_ += kBlockBytes;
  } else {
    std::memmove(buf_.get(), buf_.get() + begin_, kept);
  }
  begin_ = 0;
  end_ = kept;
  is_->read(buf_.get() + end_, static_cast<std::streamsize>(size_ - end_));
  // A stream buffer that throws leaves gcount() at 0, so only bad() tells
  // a failed read from the end of the stream.
  if (is_->bad()) {
    throw std::runtime_error("trace_io: read error after line " +
                             std::to_string(line_no_));
  }
  end_ += static_cast<std::size_t>(is_->gcount());
  eof_ = end_ < size_;
}

VariableSet readFunctionalPreamble(LineSource& lines) {
  std::string_view line;
  if (!lines.next(line) || common::trim(line) != kFunctionalHeader) {
    throw std::runtime_error("trace_io: missing functional trace header");
  }
  if (!lines.next(line)) {
    throw std::runtime_error(
        "trace_io: truncated trace: missing variable declaration line");
  }
  return parseVariableDeclaration(line, lines.lineNo());
}

bool readFunctionalRow(LineSource& lines, const VariableSet& vars,
                       std::vector<common::BitVector>& row) {
  std::string_view line;
  while (lines.next(line)) {
    const std::string_view t = common::trim(line);
    if (t.empty()) continue;
    parseFunctionalRow(t, vars, lines.lineNo(), row);
    return true;
  }
  return false;
}

void writeFunctionalTrace(std::ostream& os, const FunctionalTrace& trace) {
  os << kFunctionalHeader << "\n";
  os << formatVariableDeclaration(trace.variables()) << "\n";
  std::string line;
  std::vector<common::BitVector> row;
  for (std::size_t t = 0; t < trace.length(); ++t) {
    trace.readRow(t, row);
    line.clear();
    for (const auto& value : row) {
      if (!line.empty()) line += ',';
      value.appendHex(line);
    }
    line += '\n';
    os << line;
  }
}

FunctionalTrace readFunctionalTrace(std::istream& is) {
  LineSource lines(is);
  FunctionalTrace trace(readFunctionalPreamble(lines));
  std::vector<common::BitVector> row;
  while (readFunctionalRow(lines, trace.variables(), row)) trace.append(row);
  return trace;
}

void writePowerTrace(std::ostream& os, const PowerTrace& trace) {
  os << kPowerHeader << "\n";
  os.precision(17);
  os << trace.params().vdd << "," << trace.params().clock_hz << ","
     << trace.params().cap_per_bit << "\n";
  for (const double s : trace.samples()) os << s << "\n";
}

PowerTrace readPowerTrace(std::istream& is) {
  LineSource lines(is);
  std::string_view line;
  if (!lines.next(line) || common::trim(line) != kPowerHeader) {
    throw std::runtime_error("trace_io: missing power trace header");
  }
  if (!lines.next(line)) {
    throw std::runtime_error(
        "trace_io: truncated trace: missing power parameter line");
  }
  const auto fields = common::split(common::trim(line), ',');
  if (fields.size() != 3) {
    fail(2, "bad power parameter line (got " + std::to_string(fields.size()) +
                " fields, expected 3)");
  }
  PowerParams params;
  params.vdd = parseDouble(fields[0], 2, "vdd");
  params.clock_hz = parseDouble(fields[1], 2, "clock frequency");
  params.cap_per_bit = parseDouble(fields[2], 2, "capacitance");
  PowerTrace trace(params);
  while (lines.next(line)) {
    const std::string_view t = common::trim(line);
    if (t.empty()) continue;
    trace.append(parseDouble(t, lines.lineNo(), "power sample"));
  }
  return trace;
}

void saveFunctionalTrace(const std::string& path, const FunctionalTrace& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("trace_io: cannot open " + path);
  writeFunctionalTrace(os, trace);
}

FunctionalTrace loadFunctionalTrace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("trace_io: cannot open " + path);
  return readFunctionalTrace(is);
}

void savePowerTrace(const std::string& path, const PowerTrace& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("trace_io: cannot open " + path);
  writePowerTrace(os, trace);
}

PowerTrace loadPowerTrace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("trace_io: cannot open " + path);
  return readPowerTrace(is);
}

}  // namespace psmgen::trace
