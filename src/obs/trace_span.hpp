#pragma once
// Scoped-span tracing that emits Chrome trace_event JSON.
//
// Spans are RAII: construction stamps the start time, destruction records
// one complete event ("ph": "X"). Each event lands in a lane ("tid"):
// lane 0 is the calling thread (the flow's main thread participates in
// every parallelFor), lanes >= 1 are ThreadPool workers, keyed by the
// pool's stable per-worker id — so the emitted file shows the pipeline as
// a flame chart with one row per worker, loadable in chrome://tracing or
// https://ui.perfetto.dev.
//
// Cost policy: the collector is DISABLED by default; a span constructed
// while disabled records nothing and costs two relaxed loads. Spans are
// coarse by design (pipeline phases, per-trace tasks, per-chunk batches)
// — never per-row.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace psmgen::obs {

class Tracer {
 public:
  void setEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the collector's epoch (process start).
  double nowUs() const;

  /// Records one complete event; thread-safe. No-op while disabled.
  void record(std::string_view name, std::string_view category, double ts_us,
              double dur_us, int lane);

  std::size_t eventCount() const;
  void clear();

  /// Chrome trace_event JSON: {"displayTimeUnit": "ms",
  /// "traceEvents": [...]} with one thread_name metadata record per lane.
  void writeJson(std::ostream& os) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    double ts_us = 0.0;
    double dur_us = 0.0;
    int lane = 0;
  };

  // Lock table — mutex_ guards the event buffer; enabled_ is a relaxed
  // atomic (disabled spans must stay lock-free) and epoch_ is immutable
  // after construction.
  std::atomic<bool> enabled_{false};
  mutable common::Mutex mutex_;
  std::vector<Event> events_ GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// The process-global span collector.
Tracer& tracer();

/// Trace lane of the calling thread: an explicit setThreadLane() binding
/// if one is active, else 0 for any non-pool thread or the stable
/// ThreadPool worker id (>= 1) inside a pool worker.
int currentLane();

/// Binds an explicit trace lane to the calling thread (0 unbinds). Serve
/// session threads are not pool workers, so without this they all
/// collapse onto lane 0 and their spans render as one unreadable row;
/// the server binds lane 1000 + session id per connection thread.
void setThreadLane(int lane);

/// Lane id base for serve session threads: session N traces in lane
/// kServeLaneBase + N, clear of any plausible pool worker id.
inline constexpr int kServeLaneBase = 1000;

/// Display name of a lane, shared by the trace viewer's thread names,
/// the profiler's per-thread tallies and /debug/pprof/threads: "main",
/// "pool-worker-N" or "serve-session-N".
std::string laneName(int lane);

/// RAII span; records into the global tracer if it was enabled at
/// construction time.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "flow");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool armed_ = false;
  std::string name_;
  std::string category_;
  double t0_us_ = 0.0;
};

}  // namespace psmgen::obs
