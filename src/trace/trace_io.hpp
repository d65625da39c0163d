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
// A read that fails before the end of the stream is an error too
// ("trace_io: read error after line 40"), never a short trace.
//
// Every loader reads its stream through one LineSource, in blocks of
// 64 KiB, and decodes each row in one walk over its cells; the reading
// and row decoding are exported so that runtime::StreamingTraceReader
// shares one definition of the format instead of duplicating it.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/functional_trace.hpp"
#include "trace/power_trace.hpp"

namespace psmgen::trace {

/// First line of each file format.
const std::string& functionalTraceHeader();
const std::string& powerTraceHeader();

/// Renders the "name:kind:width,..." declaration for `vars`, the line
/// after the functional trace header. Shared by the CSV writer and the
/// serving protocol's Hello negotiation, so both agree on one spelling.
std::string formatVariableDeclaration(const VariableSet& vars);

/// The lines of a stream, split exactly as std::getline splits them: at
/// each '\n', which is dropped, with a last line that lacks its '\n'
/// still handed out. The stream is read in blocks of kBlockBytes; the
/// buffer holds one block and grows, a block at a time, only to hold a
/// line longer than that.
class LineSource {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  explicit LineSource(std::istream& is);

  /// Views the next line in `line` and returns true, or returns false at
  /// the end of the stream. The view is valid until the next call. Throws
  /// std::runtime_error if a read fails before the end of the stream.
  bool next(std::string_view& line);

  /// 1-based number of the last line handed out; 0 before the first.
  std::size_t lineNo() const { return line_no_; }

 private:
  void fill();

  std::istream* is_;
  std::unique_ptr<char[]> buf_;
  std::size_t size_;
  // buf_[begin_, end_) is read and not yet handed out.
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t line_no_ = 0;
  bool eof_ = false;
};

/// Reads the functional trace header and the variable declaration.
/// Throws std::runtime_error if either is missing or malformed.
VariableSet readFunctionalPreamble(LineSource& lines);

/// Decodes the next non-blank line, trimmed, into `row`, which ends up
/// with one value per variable; returns false at the end of the stream.
/// The cells are decoded in place, so a row that held the previous
/// line's values is refilled without allocating. Throws
/// std::runtime_error naming the line on arity mismatch or a cell that is
/// empty or not valid hex for its variable's width; `row` is then
/// unspecified.
bool readFunctionalRow(LineSource& lines, const VariableSet& vars,
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
