#pragma once
// Umbrella header for the observability layer: structured logging
// (obs/log.hpp), the metrics registry (obs/metrics.hpp) and scoped-span
// tracing (obs/trace_span.hpp), plus the configuration surface shared by
// the CLI, the bench harness and library embedders (obs::configure).
//
// The layer is process-global and disabled by default; with everything
// disabled the instrumentation sprinkled through the pipeline reduces to
// a relaxed atomic load + branch per site, and pipeline *results* are
// bit-identical whether or not it is enabled (instrumentation only ever
// observes). See DESIGN.md "Observability layer" for the metric name
// catalogue and the overhead policy.

#include <chrono>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace psmgen::obs {

/// Atomic file replacement shared by every observability dump
/// (--metrics-out, --trace-out, flight-recorder dumps): the content lands
/// in `<path>.tmp` first and is renamed over `path` only once fully
/// written, so a crash mid-dump or a concurrent reader never observes a
/// torn file — rename(2) is atomic on POSIX within a filesystem. `what`
/// labels the error log on failure. Returns false after an error log.
bool writeFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& writer,
                     const char* what);

/// Configuration applied to the process-global logger/registry/tracer.
struct Options {
  LogLevel log_level = LogLevel::Warn;
  Logger::Format log_format = Logger::Format::KeyValue;
  /// Collect metrics (implied by a non-empty metrics_out).
  bool metrics = false;
  /// Collect trace spans (implied by a non-empty trace_out).
  bool tracing = false;
  /// Written by flushOutputs(): metrics registry JSON dump.
  std::string metrics_out;
  /// Written by flushOutputs(): Chrome trace_event JSON.
  std::string trace_out;
};

/// Applies `options` to the global layer (level/format on the logger,
/// enablement on registry and tracer) and remembers the output paths for
/// flushOutputs().
void configure(const Options& options);

/// The options last passed to configure() (defaults if never called).
const Options& configuredOptions();

/// Writes metrics_out / trace_out (if configured). Returns false — after
/// logging an error — when a file cannot be written.
bool flushOutputs();

/// RAII phase instrumentation used by the pipeline: a tracer span named
/// `<prefix>.<name>`, and on destruction a `<prefix>.phase_seconds.<name>`
/// gauge plus a debug log line with the wall time.
class PhaseScope {
 public:
  explicit PhaseScope(std::string name, std::string prefix = "flow");
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  std::string name_;
  std::string prefix_;
  Span span_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace psmgen::obs
