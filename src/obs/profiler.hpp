#pragma once
// Sampling CPU profiler: the "where is time going" axis of the
// observability plane, next to the flight recorder's "what happened".
//
// A SIGPROF/`setitimer(ITIMER_PROF)` timer fires `hz` times per second
// of consumed CPU time; the kernel delivers each tick to a thread that
// is actually burning cycles, and the async-signal-safe handler walks
// that thread's call stack with `backtrace(3)` into a lock-free
// per-thread sample ring claimed from a pool preallocated at start().
// Nothing in the handler allocates, locks, or touches the logger /
// metrics registry — its cost is one backtrace walk plus a bounded
// memcpy, which is what makes always-available 97 Hz sampling cost
// under the 2% serving-throughput budget pinned by
// scripts/load_gate.py.
//
// Samples stay raw program-counter arrays until render time: stop()
// drains in-flight handlers, merges the rings, folds identical stacks,
// and only then symbolizes the distinct frames (dladdr + demangle; the
// executables link with -rdynamic so their own functions resolve).
// Each sample also carries the flight-recorder session binding of the
// interrupted thread (obs::FlightRecorder::setThreadSession) and its
// trace lane (obs::setThreadLane), so a profile of a loaded server
// attributes cycles per session and per serve lane, not just per
// function.
//
// Renderings:
//   - "psmgen.profile.v1" JSON (renderProfileJson / writeProfile):
//     capture parameters, per-thread inventory, per-session sample
//     attribution, and the folded stacks; consumed by
//     scripts/flamegraph.py (--validate / --collapse / --render);
//   - Brendan-Gregg collapsed-stack text (renderCollapsed):
//     `root;caller;leaf count` lines ready for any flamegraph tool,
//     served directly by `GET /debug/pprof/profile?seconds=N&hz=F`.
//
// Signal-handler interplay contract: the SIGPROF handler bails out
// while the fatal-signal flight dump is running (and the fatal dump
// handler is installed with SIGPROF in its sa_mask, so a profiling
// tick can never interrupt the alarm-guarded crash dump on the dying
// thread); conversely the SIGPROF sigaction masks the fatal signals
// for the microseconds a tick takes. One capture runs at a time —
// start() while running fails, and the /debug/pprof route answers 503
// while a whole-run `--profile-out` capture owns the timer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace psmgen::obs {

/// Hard cap on retained stack depth per sample (deeper stacks are
/// truncated at the root end and counted in ProfileReport::truncated).
inline constexpr std::size_t kProfileMaxDepth = 48;

struct ProfilerConfig {
  /// Sampling frequency in ticks per second of *CPU* time (ITIMER_PROF,
  /// not wall time). Clamped to [1, 1000].
  double hz = 97.0;
  /// Samples retained per thread ring; on wraparound the oldest samples
  /// are overwritten (counted in ProfileReport::dropped).
  std::size_t ring_capacity = 16384;
  /// Rings preallocated at start(); the first `max_threads` distinct
  /// threads to receive a tick each claim one, later threads' ticks are
  /// counted in ProfileReport::overflowed. Memory is reserved lazily by
  /// the OS, so an idle ring costs address space, not resident pages.
  std::size_t max_threads = 64;
};

/// Aggregated result of one capture, produced by Profiler::stop().
struct ProfileReport {
  double hz = 0.0;
  double duration_seconds = 0.0;     ///< wall time between start and stop
  std::uint64_t samples = 0;         ///< samples retained in the rings
  std::uint64_t dropped = 0;         ///< overwritten by ring wraparound
  std::uint64_t overflowed = 0;      ///< ticks on threads past max_threads
  std::uint64_t truncated = 0;       ///< samples deeper than the depth cap

  struct Thread {
    int index = 0;                   ///< ring claim order (0-based)
    std::uint64_t tid = 0;           ///< kernel thread id (gettid)
    int lane = 0;                    ///< obs::setThreadLane binding
    std::uint64_t samples = 0;
  };
  std::vector<Thread> threads;

  /// One folded stack: symbolized frames root-first, with the number of
  /// samples whose walk matched it exactly. Sorted by count descending.
  struct Stack {
    std::vector<std::string> frames;
    std::uint64_t count = 0;
  };
  std::vector<Stack> stacks;

  /// Samples per flight-recorder session id (0 = unbound threads).
  std::map<std::uint64_t, std::uint64_t> by_session;
};

class Profiler {
 public:
  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Arms the SIGPROF timer and starts sampling. Returns false — after
  /// an error log — when a capture is already running or the
  /// sigaction/setitimer syscalls fail. The ring pool is allocated here,
  /// before the first tick can fire.
  bool start(const ProfilerConfig& config = {});

  bool running() const { return armed_.load(std::memory_order_acquire); }

  /// Disarms the timer, restores the previous SIGPROF disposition,
  /// waits for in-flight handlers to drain, and aggregates the rings
  /// into a report (folding + symbolization happen here, never in the
  /// handler). Returns an empty report when no capture was running.
  ProfileReport stop();

  /// Live thread inventory of the current (or, after stop(), the last)
  /// capture: one entry per claimed ring. Safe to call mid-capture —
  /// it reads only the rings' atomic headers, never the sample slots.
  std::vector<ProfileReport::Thread> threadInventory() const;

  /// The configuration of the current/last capture.
  ProfilerConfig config() const EXCLUDES(control_mu_);

 private:
  friend void profilerSignalHandler(int);
  struct Ring;

  /// Called from the SIGPROF handler on the interrupted thread.
  void sampleCurrentThread();

  std::atomic<bool> armed_{false};
  std::atomic<int> in_handler_{0};
  /// Bumped per start() so a thread's cached ring pointer from an
  /// earlier capture is never reused against a rebuilt pool.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> rings_claimed_{0};
  std::atomic<std::uint64_t> overflowed_{0};

  // Lock table — control_mu_ serializes the control plane (start/stop/
  // threadInventory/config) and guards the capture configuration, the
  // ring pool's shape, and the capture start time. The SIGPROF handler
  // deliberately runs outside this lock: a handler can never block, so
  // it reaches the rings only through the lock-free epoch/claim protocol
  // (relaxed atomics above), and stop() drains in_handler_ before it
  // aggregates. sampleCurrentThread() is the one NO_THREAD_SAFETY_ANALYSIS
  // reader of rings_.
  mutable common::Mutex control_mu_;
  ProfilerConfig config_ GUARDED_BY(control_mu_);
  std::vector<std::unique_ptr<Ring>> rings_ GUARDED_BY(control_mu_);
  double started_monotonic_s_ GUARDED_BY(control_mu_) = 0.0;
  /// The SIGPROF disposition's signal trampoline (null where the
  /// platform reports none); render time strips it from sample leaves.
  void* trampoline_pc_ GUARDED_BY(control_mu_) = nullptr;
};

/// The process-global profiler (one ITIMER_PROF per process, so one
/// profiler per process).
Profiler& profiler();

/// The process-global profiler if profiler() has already created it,
/// else nullptr — one acquire load. The SIGPROF handler uses this so
/// first-call lazy initialization (__cxa_guard_acquire + operator new)
/// can never appear in a signal handler's call graph;
/// scripts/signal_safety_gate.py enforces that property.
Profiler* profilerIfCreated() noexcept;

/// Renders the Brendan-Gregg collapsed-stack text form:
/// `frame;frame;frame count\n` per folded stack, root-first.
std::string renderCollapsed(const ProfileReport& report);

/// Renders the "psmgen.profile.v1" JSON document.
void writeProfileJson(std::ostream& os, const ProfileReport& report);
std::string renderProfileJson(const ProfileReport& report);

/// Dumps the JSON report to `path` via the atomic tmp+rename helper
/// (same contract as --metrics-out). Returns false after an error log.
bool writeProfile(const std::string& path, const ProfileReport& report);

}  // namespace psmgen::obs
