#include "trace/trace_io.hpp"

#include <algorithm>
#include <fstream>
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
}  // namespace

const std::string& functionalTraceHeader() { return kFunctionalHeader; }

std::string formatVariableDeclaration(const VariableSet& vars) {
  std::vector<std::string> cols;
  cols.reserve(vars.size());
  for (const auto& v : vars.all()) {
    cols.push_back(v.name + ":" + kindName(v.kind) + ":" +
                   std::to_string(v.width));
  }
  return common::join(cols, ",");
}
const std::string& powerTraceHeader() { return kPowerHeader; }

VariableSet parseVariableDeclaration(const std::string& line,
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

void parseFunctionalRow(std::string_view line, const VariableSet& vars,
                        std::size_t line_no,
                        std::vector<common::BitVector>& row) {
  const std::size_t cells =
      1 + static_cast<std::size_t>(std::count(line.begin(), line.end(), ','));
  if (cells != vars.size()) {
    fail(line_no, "row arity mismatch (got " + std::to_string(cells) +
                      " cells, expected " + std::to_string(vars.size()) + ")");
  }
  row.resize(cells);
  std::size_t start = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t end = std::min(line.find(',', start), line.size());
    const std::string_view cell = line.substr(start, end - start);
    start = end + 1;
    try {
      if (cell.empty()) throw std::invalid_argument("empty cell");
      row[i].assignHex(cell, vars[i].width);
    } catch (const std::exception& e) {
      fail(line_no, "bad value for variable '" + vars[i].name +
                        "': " + e.what());
    }
  }
}

void writeFunctionalTrace(std::ostream& os, const FunctionalTrace& trace) {
  os << kFunctionalHeader << "\n";
  os << formatVariableDeclaration(trace.variables()) << "\n";
  for (std::size_t t = 0; t < trace.length(); ++t) {
    std::vector<std::string> cells;
    for (const auto& value : trace.step(t)) cells.push_back(value.toHex());
    os << common::join(cells, ",") << "\n";
  }
}

FunctionalTrace readFunctionalTrace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || common::trim(line) != kFunctionalHeader) {
    throw std::runtime_error("trace_io: missing functional trace header");
  }
  if (!std::getline(is, line)) {
    throw std::runtime_error(
        "trace_io: truncated trace: missing variable declaration line");
  }
  FunctionalTrace trace(parseVariableDeclaration(line, 2));
  std::size_t line_no = 2;
  std::vector<common::BitVector> row;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view t = common::trim(line);
    if (t.empty()) continue;
    parseFunctionalRow(t, trace.variables(), line_no, row);
    trace.append(std::move(row));
  }
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
  std::string line;
  if (!std::getline(is, line) || common::trim(line) != kPowerHeader) {
    throw std::runtime_error("trace_io: missing power trace header");
  }
  if (!std::getline(is, line)) {
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
  std::size_t line_no = 2;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view t = common::trim(line);
    if (t.empty()) continue;
    trace.append(parseDouble(t, line_no, "power sample"));
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
