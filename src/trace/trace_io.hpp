#pragma once
// CSV persistence for functional and power traces.
//
// Functional trace format:
//   # psmgen functional trace v1
//   name:kind:width,name:kind:width,...
//   <hex>,<hex>,...            (one row per instant, MSB-first hex values)
//
// Power trace format:
//   # psmgen power trace v1
//   vdd,clock_hz,cap_per_bit
//   <sample>                   (one double per line)
//
// All parse errors are std::runtime_error carrying the 1-based line
// number of the offending row, e.g.
//   "trace_io: line 12: row arity mismatch (got 2 cells, expected 3)".
//
// The low-level line parsers are exported so that streaming consumers
// (runtime::StreamingTraceReader) share one definition of the format
// instead of duplicating it.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/functional_trace.hpp"
#include "trace/power_trace.hpp"

namespace psmgen::trace {

/// First line of each file format.
const std::string& functionalTraceHeader();
const std::string& powerTraceHeader();

/// Parses the "name:kind:width,..." variable declaration (second line of
/// a functional trace). `line_no` is used in error messages only.
VariableSet parseVariableDeclaration(const std::string& line,
                                     std::size_t line_no);

/// Renders the "name:kind:width,..." declaration for `vars` — the exact
/// inverse of parseVariableDeclaration. Shared by the CSV writer and the
/// serving protocol's Hello negotiation, so both agree on one spelling.
std::string formatVariableDeclaration(const VariableSet& vars);

/// Parses one trimmed data row ("<hex>,<hex>,...") against `vars` into
/// `row`, which ends up with one value per variable. The cells are decoded
/// in place, so a row that held the previous line's values is refilled
/// without allocating. Throws std::runtime_error naming `line_no` on arity
/// mismatch or a cell that is empty or not valid hex for its variable's
/// width; `row` is then unspecified.
void parseFunctionalRow(std::string_view line, const VariableSet& vars,
                        std::size_t line_no,
                        std::vector<common::BitVector>& row);

void writeFunctionalTrace(std::ostream& os, const FunctionalTrace& trace);
FunctionalTrace readFunctionalTrace(std::istream& is);

void writePowerTrace(std::ostream& os, const PowerTrace& trace);
PowerTrace readPowerTrace(std::istream& is);

/// File-path convenience wrappers; throw std::runtime_error on I/O failure.
void saveFunctionalTrace(const std::string& path, const FunctionalTrace& trace);
FunctionalTrace loadFunctionalTrace(const std::string& path);
void savePowerTrace(const std::string& path, const PowerTrace& trace);
PowerTrace loadPowerTrace(const std::string& path);

}  // namespace psmgen::trace
