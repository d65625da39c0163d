#include "runtime/streaming_reader.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace psmgen::runtime {

StreamingTraceReader::StreamingTraceReader(std::istream& is)
    : StreamingTraceReader(is, Options{}) {}

StreamingTraceReader::StreamingTraceReader(std::istream& is, Options options)
    : lines_(is), options_(options) {
  readPreamble();
}

StreamingTraceReader::StreamingTraceReader(const std::string& path)
    : StreamingTraceReader(path, Options{}) {}

StreamingTraceReader::StreamingTraceReader(const std::string& path,
                                           Options options)
    : owned_(std::make_unique<std::ifstream>(path)), lines_(*owned_),
      options_(options) {
  if (!*owned_) {
    throw std::runtime_error("StreamingTraceReader: cannot open " + path);
  }
  readPreamble();
}

void StreamingTraceReader::readPreamble() {
  if (options_.chunk_rows == 0) {
    throw std::invalid_argument("StreamingTraceReader: chunk_rows must be > 0");
  }
  vars_ = trace::readFunctionalPreamble(lines_);
  buffer_.reserve(options_.chunk_rows);
}

void StreamingTraceReader::refill() {
  buffer_pos_ = 0;
  buffer_len_ = 0;
  while (buffer_len_ < options_.chunk_rows) {
    if (buffer_len_ == buffer_.size()) buffer_.emplace_back();
    if (!trace::readFunctionalRow(lines_, vars_, buffer_[buffer_len_])) break;
    ++buffer_len_;
  }
  if (buffer_len_ == 0) {
    exhausted_ = true;
    return;
  }
  ++refills_;
  peak_ = std::max(peak_, buffer_len_);
  // Per-refill (not per-row): one counter bump per chunk keeps the
  // disabled-registry cost off the row-delivery fast path entirely.
  obs::Registry& reg = obs::metrics();
  reg.counter("reader.refills").add(1);
  reg.counter("reader.rows").add(buffer_len_);
  if (reg.enabled()) {
    reg.gauge("reader.peak_resident_rows")
        .set(static_cast<double>(peak_));
  }
}

bool StreamingTraceReader::next(std::vector<common::BitVector>& row) {
  if (buffer_pos_ == buffer_len_) {
    if (exhausted_) return false;
    refill();
    if (exhausted_) return false;
  }
  row.swap(buffer_[buffer_pos_++]);
  ++rows_;
  return true;
}

}  // namespace psmgen::runtime
