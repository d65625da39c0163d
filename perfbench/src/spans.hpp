#pragma once
// Span recorder of the traced run. Every call the benchmark makes into a
// psmgen layer is wrapped in a span: name, start, end, parent span and a
// per-job id. Spans stay in memory and are written out when the run ends;
// self time is a span's duration minus its children's.
//
// Hot per-row calls (StreamingTraceReader::next, OnlinePredictor::
// predictRow, Client::predict, ...) are rolled up: one record per (name,
// parent) accumulates the duration and call count of every call, so a
// million-row stream costs one record, not a million.
//
// A Tracer is single-threaded.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  /// Opens a span starting now; returns its id.
  int begin(const std::string& name, int parent, std::uint32_t job);
  /// Closes span `id` now.
  void end(int id);

  /// A rolled-up record fed by add(); start is the first add().
  int rollup(const std::string& name, int parent, std::uint32_t job);
  /// Adds one call of `seconds` (ending now) to rollup `id`.
  void add(int id, double seconds, std::uint64_t calls = 1);

  /// Appends `other`'s records, re-basing its parent ids.
  void merge(const Tracer& other);

  struct Totals {
    double seconds = 0.0;  ///< summed duration
    double self = 0.0;     ///< summed duration minus children's
    std::uint64_t calls = 0;
  };
  /// Per span name.
  std::map<std::string, Totals> totals() const;

  /// One line per record: name, start_s, end_s, duration_s, calls,
  /// parent id and job id, tab-separated.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    double duration = 0.0;
    std::uint64_t calls = 0;
    int parent = kNoParent;
    std::uint32_t job = 0;
  };
  std::vector<Span> spans_;
};

/// Closes a span when the scope ends; inert when the tracer is null
/// (untraced passes run the same code with no timing).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, int parent,
            std::uint32_t job)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, parent, job) : Tracer::kNoParent) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
