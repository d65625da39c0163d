#pragma once
// Bounded-memory iteration over functional-trace CSV files.
//
// trace::loadFunctionalTrace materializes the whole trace — fine for
// training, wrong for serving, where evaluation traces can be orders of
// magnitude longer than RAM. StreamingTraceReader parses the same CSV
// format (trace/trace_io.hpp) one row at a time: next() decodes the next
// line in place into the caller's row, so no parsed row is resident
// beyond the one the caller holds, regardless of trace length.
//
// The text comes through a trace::LineSource, which reads the stream in
// 64 KiB blocks and hands out each line as a view into its block, so the
// reader holds one block, and more only for a line longer than a block.
// A caller that reuses one row therefore streams with no allocation per
// row once the row holds one value per variable.

#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "trace/trace_io.hpp"
#include "trace/variable.hpp"

namespace psmgen::runtime {

class StreamingTraceReader {
 public:
  /// Reads from an externally owned stream (header + variable declaration
  /// are consumed immediately; throws std::runtime_error if malformed).
  explicit StreamingTraceReader(std::istream& is);

  /// Opens `path`; throws std::runtime_error if unreadable.
  explicit StreamingTraceReader(const std::string& path);

  const trace::VariableSet& variables() const { return vars_; }

  /// Decodes the next row into `row`; returns false at end of stream.
  /// Every row before a bad one has been delivered when it throws; parse
  /// errors carry the 1-based line number of the offending row, and
  /// `row` is then unspecified.
  bool next(std::vector<common::BitVector>& row) {
    return trace::readFunctionalRow(lines_, vars_, row);
  }

 private:
  std::unique_ptr<std::istream> owned_;
  trace::LineSource lines_;
  trace::VariableSet vars_;
};

}  // namespace psmgen::runtime
