#pragma once
// Bounded-memory iteration over functional-trace CSV files.
//
// trace::loadFunctionalTrace materializes the whole trace — fine for
// training, wrong for serving, where evaluation traces can be orders of
// magnitude longer than RAM. StreamingTraceReader parses the same CSV
// format (trace/trace_io.hpp) row by row: at most `chunk_rows` parsed
// rows are resident at any instant, regardless of trace length. The
// reader refills its buffer from the stream when it drains, so the
// consumer sees a simple next() iterator while I/O happens in chunks.
//
// The text comes through a trace::LineSource, which reads the stream in
// 64 KiB blocks and hands out each line as a view into its block, so the
// reader holds chunk_rows parsed rows plus one block, and more only for
// a line longer than a block. The buffer's slots (one parsed row each)
// live as long as the reader: a refill decodes each line in place into a
// slot's values, and next() swaps the slot with the caller's row, so the
// caller's previous row becomes the storage the next refill parses into.
// A caller that reuses one row therefore streams with no allocation per
// row once every slot has been filled.
//
// peakBufferedRows() exposes the high-water mark of resident rows; the
// bounded-memory contract (peak <= chunk_rows) is enforced by tests that
// stream traces much larger than one chunk.

#include <cstddef>
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
  struct Options {
    /// Rows parsed per refill; the memory bound of the reader.
    std::size_t chunk_rows = 4096;
  };

  /// Reads from an externally owned stream (header + variable declaration
  /// are consumed immediately; throws std::runtime_error if malformed).
  explicit StreamingTraceReader(std::istream& is);
  StreamingTraceReader(std::istream& is, Options options);

  /// Opens `path`; throws std::runtime_error if unreadable.
  explicit StreamingTraceReader(const std::string& path);
  StreamingTraceReader(const std::string& path, Options options);

  const trace::VariableSet& variables() const { return vars_; }

  /// Swaps the next row into `row` (the reader keeps `row`'s old storage
  /// for a later refill); returns false at end of stream. Parse errors
  /// carry the 1-based line number of the offending row.
  bool next(std::vector<common::BitVector>& row);

  /// Rows handed out through next() so far.
  std::size_t rowsDelivered() const { return rows_; }
  /// Buffer refills performed (chunked I/O round trips).
  std::size_t refills() const { return refills_; }
  /// High-water mark of rows resident in the buffer; never exceeds
  /// Options::chunk_rows.
  std::size_t peakBufferedRows() const { return peak_; }

 private:
  void readPreamble();
  void refill();

  std::unique_ptr<std::istream> owned_;
  trace::LineSource lines_;
  Options options_;
  trace::VariableSet vars_;
  /// Slots, reused across refills; [buffer_pos_, buffer_len_) are unread.
  std::vector<std::vector<common::BitVector>> buffer_;
  std::size_t buffer_pos_ = 0;
  std::size_t buffer_len_ = 0;
  std::size_t rows_ = 0;
  std::size_t refills_ = 0;
  std::size_t peak_ = 0;
  bool exhausted_ = false;
};

}  // namespace psmgen::runtime
