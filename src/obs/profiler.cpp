#include "obs/profiler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/trace_span.hpp"

namespace psmgen::obs {

namespace {

/// Frames the walk itself contributes on top of the interrupted stack
/// (sampleCurrentThread + the signal handler; the signal trampoline is
/// stripped at render time because its presence depends on the
/// unwinder).
constexpr int kHandlerSkipFrames = 2;
/// Extra slots captured so the skip never eats real frames.
constexpr int kCaptureSlack = 4;

/// One raw sample. Written by the SIGPROF handler on the interrupted
/// thread, read only after stop() has drained the handlers (or, for the
/// wrapped-past prefix, never again) — so plain stores are enough; the
/// ring's atomic `total` release/acquire pair orders them. Deliberately
/// trivially-constructible with no member initializers: the pool is
/// hundreds of megabytes at the default geometry, and zeroing it on
/// start() would touch every page of memory only a handful of ticks
/// will ever write. The handler fills every field of a slot before the
/// release store of `total` publishes it, and readers never look past
/// `depth` frames, so uninitialized slots are never observed.
struct ProfileSample {
  std::uint64_t session;
  std::int32_t lane;
  std::uint16_t depth;
  std::uint16_t truncated;
  void* frames[kProfileMaxDepth];
};
static_assert(std::is_trivially_default_constructible_v<ProfileSample>,
              "slot pool must stay allocate-without-touching");

/// Per-thread cached ring claim, validated against the capture epoch so
/// a pointer from a previous capture is never reused after the pool was
/// rebuilt. Plain-old-data thread_locals only: the cache is touched
/// from the signal handler, where a dynamic initializer would not be
/// async-signal-safe.
thread_local void* t_profiler_ring = nullptr;
thread_local std::uint64_t t_profiler_epoch = 0;

/// SIGPROF disposition is installed once and kept for the process
/// lifetime (the handler no-ops while disarmed): restoring the default
/// disposition on stop() would turn one straggling queued tick into
/// SIGPROF's default action — process termination.
std::atomic<bool> g_sigprof_installed{false};

double nowMonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool isTrampolineFrame(const std::string& name) {
  return name.find("__restore_rt") != std::string::npos ||
         name.find("__kernel_rt_sigreturn") != std::string::npos ||
         name.find("profilerSignalHandler") != std::string::npos ||
         name.find("sampleCurrentThread") != std::string::npos;
}

/// Strips the parameter list from a demangled name, leaving the
/// qualified function. Tolerates a leading "(anonymous namespace)"
/// component and "operator()" so neither collapses to "".
std::string stripParameterList(const std::string& demangled) {
  std::size_t begin = 0;
  constexpr const char kAnon[] = "(anonymous namespace)";
  if (demangled.rfind(kAnon, 0) == 0) begin = sizeof(kAnon) - 1;
  std::size_t paren = demangled.find('(', begin);
  constexpr const char kCallOp[] = "operator";
  while (paren != std::string::npos && paren >= sizeof(kCallOp) - 1 &&
         demangled.compare(paren - (sizeof(kCallOp) - 1),
                           sizeof(kCallOp) - 1, kCallOp) == 0) {
    paren = demangled.find('(', paren + 2);
  }
  return paren == std::string::npos ? demangled : demangled.substr(0, paren);
}

/// pc -> display name, via the dynamic symbol table (the executables
/// link with -rdynamic so their own functions resolve); unresolvable
/// addresses render as hex. ';' would corrupt the collapsed form, so it
/// is mapped to ':'.
std::string symbolize(void* pc) {
  Dl_info info{};
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    std::string name = info.dli_sname;
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name = stripParameterList(demangled);
    }
    std::free(demangled);
    for (char& c : name) {
      if (c == ';') c = ':';
    }
    return name;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx",
                reinterpret_cast<std::size_t>(pc));
  return buf;
}

}  // namespace

/// One thread's sample ring. The owning thread's handler is the only
/// writer; `total` counts appends forever (release on store), and the
/// live samples are the newest min(total, capacity) slots.
struct Profiler::Ring {
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> tid{0};
  std::atomic<std::int32_t> lane{0};
  std::size_t capacity = 0;
  std::unique_ptr<ProfileSample[]> slots;
};

void profilerSignalHandler(int) {
  const int saved_errno = errno;
  // profilerIfCreated(), never profiler(): the lazy accessor's first
  // call allocates under a static guard, and neither __cxa_guard_acquire
  // nor operator new may appear in a handler's call graph
  // (scripts/signal_safety_gate.py enforces this). A tick can only fire
  // after start() armed the timer, which created the instance — the
  // null check is belt and braces.
  Profiler* p = profilerIfCreated();
  if (p == nullptr) {
    errno = saved_errno;
    return;
  }
  // seq_cst pairs with stop()'s armed_ store + in_handler_ wait: a
  // handler that observed armed==true is always counted before stop()
  // can see the count reach zero, so aggregation never races a writer.
  p->in_handler_.fetch_add(1, std::memory_order_seq_cst);
  if (p->armed_.load(std::memory_order_seq_cst) && !inFatalSignalDump()) {
    p->sampleCurrentThread();
  }
  p->in_handler_.fetch_sub(1, std::memory_order_seq_cst);
  errno = saved_errno;
}

// Everything here must stay async-signal-safe: no allocation, no locks,
// no logger/metrics. backtrace(3) is primed at start() so its one-time
// libgcc load never happens in the handler. noinline keeps the
// kHandlerSkipFrames layout (this function + the handler) honest.
// NO_THREAD_SAFETY_ANALYSIS: rings_ is guarded by control_mu_, but a
// signal handler can never block on it — this reader relies on the
// lock-free epoch/claim protocol instead (pool rebuilt only under
// control_mu_ while disarmed, handlers drained by stop() before the
// pool is touched), a contract the analysis cannot express. Pinned by
// scripts/signal_safety_gate.py and the profiler tests.
__attribute__((noinline)) void Profiler::sampleCurrentThread()
    NO_THREAD_SAFETY_ANALYSIS {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  Ring* ring = nullptr;
  if (t_profiler_epoch == epoch && t_profiler_ring != nullptr) {
    ring = static_cast<Ring*>(t_profiler_ring);
  } else {
    const std::size_t idx =
        rings_claimed_.fetch_add(1, std::memory_order_relaxed);
    ring = idx < rings_.size() ? rings_[idx].get() : nullptr;
    if (ring != nullptr) {
      ring->tid.store(static_cast<std::uint64_t>(::syscall(SYS_gettid)),
                      std::memory_order_relaxed);
    }
    t_profiler_ring = ring;
    t_profiler_epoch = epoch;
  }
  if (ring == nullptr) {
    // Pool exhausted: the tick is counted, never lost silently.
    overflowed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->lane.store(currentLane(), std::memory_order_relaxed);

  void* frames[kProfileMaxDepth + kCaptureSlack];
  const int captured =
      ::backtrace(frames, static_cast<int>(kProfileMaxDepth) + kCaptureSlack);
  const int skip = std::min(captured, kHandlerSkipFrames);
  const int depth = std::min(captured - skip,
                             static_cast<int>(kProfileMaxDepth));
  if (depth <= 0) return;

  const std::uint64_t total = ring->total.load(std::memory_order_relaxed);
  ProfileSample& slot = ring->slots[total % ring->capacity];
  slot.session = FlightRecorder::threadSession();
  slot.lane = currentLane();
  slot.depth = static_cast<std::uint16_t>(depth);
  slot.truncated =
      captured >= static_cast<int>(kProfileMaxDepth) + kCaptureSlack ? 1 : 0;
  std::memcpy(slot.frames, frames + skip,
              static_cast<std::size_t>(depth) * sizeof(void*));
  ring->total.store(total + 1, std::memory_order_release);
}

Profiler::Profiler() = default;
Profiler::~Profiler() { stop(); }

bool Profiler::start(const ProfilerConfig& config) {
  common::MutexLock lock(control_mu_);
  if (armed_.load(std::memory_order_acquire)) {
    error("obs.profile_already_running", {});
    return false;
  }
  config_ = config;
  config_.hz = std::min(std::max(config.hz, 1.0), 1000.0);
  config_.ring_capacity = std::max<std::size_t>(config.ring_capacity, 16);
  config_.max_threads =
      std::min<std::size_t>(std::max<std::size_t>(config.max_threads, 1), 1024);

  // Build the whole ring pool before the first tick can fire; the
  // handler only ever claims preallocated rings.
  rings_.clear();
  rings_.reserve(config_.max_threads);
  for (std::size_t i = 0; i < config_.max_threads; ++i) {
    auto ring = std::make_unique<Ring>();
    ring->capacity = config_.ring_capacity;
    // Default-init, NOT make_unique: value-initialization would zero the
    // whole pool (ring_capacity × max_threads × ~400 B ≈ hundreds of MB
    // at defaults), faulting in every page for samples that are written
    // in full before being published anyway.
    ring->slots.reset(new ProfileSample[config_.ring_capacity]);
    rings_.push_back(std::move(ring));
  }
  rings_claimed_.store(0, std::memory_order_relaxed);
  overflowed_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_relaxed);

  // backtrace()'s first call may load libgcc (which allocates); prime it
  // here, in normal context, so the handler never does.
  void* prime[4];
  ::backtrace(prime, 4);

  if (!g_sigprof_installed.exchange(true)) {
    struct sigaction action {};
    action.sa_handler = &profilerSignalHandler;
    sigemptyset(&action.sa_mask);
    // The fatal signals are masked for the microseconds a tick takes,
    // mirroring the fatal-dump handler masking SIGPROF: neither handler
    // can interleave into the other on the same thread.
    for (const int fatal : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
      sigaddset(&action.sa_mask, fatal);
    }
    action.sa_flags = SA_RESTART;
    if (::sigaction(SIGPROF, &action, nullptr) != 0) {
      g_sigprof_installed.store(false);
      error("obs.profile_sigaction_failed",
            {{"errno", common::errnoMessage(errno)}});
      return false;
    }
  }

  // The handler returns through the disposition's sa_restorer (glibc's
  // __restore_rt on x86-64), which the unwinder reports as the sample's
  // leaf. dladdr cannot name it, so it is stripped by this address.
  struct sigaction installed {};
  trampoline_pc_ = ::sigaction(SIGPROF, nullptr, &installed) == 0
                       ? reinterpret_cast<void*>(installed.sa_restorer)
                       : nullptr;

  started_monotonic_s_ = nowMonotonicSeconds();
  armed_.store(true, std::memory_order_seq_cst);

  const long interval_us =
      std::max(1L, static_cast<long>(1e6 / config_.hz));
  itimerval timer{};
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = static_cast<suseconds_t>(interval_us % 1000000);
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    armed_.store(false, std::memory_order_seq_cst);
    error("obs.profile_setitimer_failed", {{"errno", common::errnoMessage(errno)}});
    return false;
  }

  if (flightRecorder().enabled()) {
    FlightEvent event;
    event.kind = static_cast<std::uint16_t>(FlightEventKind::ProfileStart);
    event.detail = static_cast<std::uint32_t>(config_.hz);
    flightRecorder().record(event);
  }
  info("obs.profile_start",
       {{"hz", config_.hz},
        {"ring_capacity", config_.ring_capacity},
        {"max_threads", config_.max_threads}});
  return true;
}

ProfileReport Profiler::stop() {
  common::MutexLock lock(control_mu_);
  ProfileReport report;
  if (!armed_.load(std::memory_order_acquire)) return report;

  // Disarm the timer first (no new ticks are generated), then flip
  // armed_ and wait out the handlers already past their armed_ check; a
  // straggling queued tick after this runs the no-op path.
  itimerval off{};
  ::setitimer(ITIMER_PROF, &off, nullptr);
  armed_.store(false, std::memory_order_seq_cst);
  while (in_handler_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }

  report.hz = config_.hz;
  report.duration_seconds = nowMonotonicSeconds() - started_monotonic_s_;
  report.overflowed = overflowed_.load(std::memory_order_relaxed);

  // Fold identical raw stacks first (cheap pointer compares), symbolize
  // each distinct pc exactly once afterwards.
  std::map<std::vector<void*>, std::uint64_t> raw_folds;
  const std::size_t claimed =
      std::min(rings_claimed_.load(std::memory_order_relaxed), rings_.size());
  int index = 0;
  for (std::size_t r = 0; r < claimed; ++r) {
    const Ring& ring = *rings_[r];
    const std::uint64_t total = ring.total.load(std::memory_order_acquire);
    const std::uint64_t live = std::min<std::uint64_t>(total, ring.capacity);
    report.dropped += total - live;
    ProfileReport::Thread thread;
    thread.index = index++;
    thread.tid = ring.tid.load(std::memory_order_relaxed);
    thread.lane = ring.lane.load(std::memory_order_relaxed);
    thread.samples = total;
    report.threads.push_back(thread);
    for (std::uint64_t i = total - live; i < total; ++i) {
      const ProfileSample& sample = ring.slots[i % ring.capacity];
      ++report.samples;
      report.truncated += sample.truncated;
      ++report.by_session[sample.session];
      raw_folds[std::vector<void*>(sample.frames,
                                   sample.frames + sample.depth)] += 1;
    }
  }

  std::unordered_map<void*, std::string> names;
  auto nameOf = [&names](void* pc) -> const std::string& {
    auto it = names.find(pc);
    if (it == names.end()) it = names.emplace(pc, symbolize(pc)).first;
    return it->second;
  };
  // Distinct pcs in the same function fold together once symbolized, so
  // the string-keyed accumulation after symbolization is what merges
  // call sites into one flamegraph frame.
  std::map<std::vector<std::string>, std::uint64_t> folds;
  for (const auto& [frames, count] : raw_folds) {
    std::vector<std::string> symbolized;
    symbolized.reserve(frames.size());
    // Raw frames are leaf-first; trampoline remnants sit at the leaf.
    std::size_t begin = 0;
    while (begin < frames.size() &&
           ((trampoline_pc_ != nullptr && frames[begin] == trampoline_pc_) ||
            isTrampolineFrame(nameOf(frames[begin])))) {
      ++begin;
    }
    for (std::size_t i = frames.size(); i > begin; --i) {
      symbolized.push_back(nameOf(frames[i - 1]));  // reverse: root-first
    }
    if (symbolized.empty()) continue;
    folds[symbolized] += count;
  }
  report.stacks.reserve(folds.size());
  for (auto& [frames, count] : folds) {
    report.stacks.push_back({frames, count});
  }
  std::sort(report.stacks.begin(), report.stacks.end(),
            [](const ProfileReport::Stack& a, const ProfileReport::Stack& b) {
              return a.count > b.count;
            });

  metrics().counter("obs.profile.captures").add();
  metrics().counter("obs.profile.samples").add(report.samples);
  metrics().counter("obs.profile.dropped")
      .add(report.dropped + report.overflowed);
  if (flightRecorder().enabled()) {
    FlightEvent event;
    event.kind = static_cast<std::uint16_t>(FlightEventKind::ProfileStop);
    event.detail = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(report.samples, 0xFFFFFFFFu));
    flightRecorder().record(event);
  }
  info("obs.profile_stop",
       {{"samples", report.samples},
        {"threads", report.threads.size()},
        {"stacks", report.stacks.size()},
        {"dropped", report.dropped},
        {"overflowed", report.overflowed},
        {"duration_seconds", report.duration_seconds}});
  return report;
}

std::vector<ProfileReport::Thread> Profiler::threadInventory() const {
  common::MutexLock lock(control_mu_);
  std::vector<ProfileReport::Thread> out;
  const std::size_t claimed =
      std::min(rings_claimed_.load(std::memory_order_relaxed), rings_.size());
  out.reserve(claimed);
  for (std::size_t r = 0; r < claimed; ++r) {
    const Ring& ring = *rings_[r];
    ProfileReport::Thread thread;
    thread.index = static_cast<int>(r);
    thread.tid = ring.tid.load(std::memory_order_relaxed);
    thread.lane = ring.lane.load(std::memory_order_relaxed);
    thread.samples = ring.total.load(std::memory_order_acquire);
    out.push_back(thread);
  }
  return out;
}

namespace {

/// Published by profiler() once the lazy singleton exists; the SIGPROF
/// handler reads only this, never the guarded static below.
std::atomic<Profiler*> g_profiler_if_created{nullptr};

}  // namespace

Profiler& profiler() {
  // Leaked on purpose (like flightRecorder()): the SIGPROF disposition
  // outlives static destruction, so the object it samples into must too.
  static Profiler* instance = [] {
    auto* created = new Profiler();
    g_profiler_if_created.store(created, std::memory_order_release);
    return created;
  }();
  return *instance;
}

Profiler* profilerIfCreated() noexcept {
  return g_profiler_if_created.load(std::memory_order_acquire);
}

ProfilerConfig Profiler::config() const {
  common::MutexLock lock(control_mu_);
  return config_;
}

std::string renderCollapsed(const ProfileReport& report) {
  std::string out;
  out.reserve(report.stacks.size() * 96);
  for (const auto& stack : report.stacks) {
    bool first = true;
    for (const std::string& frame : stack.frames) {
      if (!first) out += ';';
      first = false;
      out += frame;
    }
    out += ' ';
    out += std::to_string(stack.count);
    out += '\n';
  }
  return out;
}

void writeProfileJson(std::ostream& os, const ProfileReport& report) {
  std::string out;
  out.reserve(4096);
  char buf[64];
  out += "{\n  \"schema\": \"psmgen.profile.v1\",\n  \"hz\": ";
  std::snprintf(buf, sizeof(buf), "%.3f", report.hz);
  out += buf;
  out += ",\n  \"duration_seconds\": ";
  std::snprintf(buf, sizeof(buf), "%.3f", report.duration_seconds);
  out += buf;
  out += ",\n  \"samples\": " + std::to_string(report.samples);
  out += ",\n  \"dropped\": " + std::to_string(report.dropped);
  out += ",\n  \"overflowed\": " + std::to_string(report.overflowed);
  out += ",\n  \"truncated\": " + std::to_string(report.truncated);
  out += ",\n  \"threads\": [";
  bool first = true;
  for (const auto& thread : report.threads) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"index\": " + std::to_string(thread.index);
    out += ", \"tid\": " + std::to_string(thread.tid);
    out += ", \"lane\": " + std::to_string(thread.lane);
    out += ", \"lane_name\": ";
    common::appendJsonString(out, laneName(thread.lane));
    out += ", \"samples\": " + std::to_string(thread.samples) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"by_session\": [";
  first = true;
  for (const auto& [session, samples] : report.by_session) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"session\": " + std::to_string(session);
    out += ", \"samples\": " + std::to_string(samples) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"stacks\": [";
  first = true;
  for (const auto& stack : report.stacks) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"frames\": [";
    bool first_frame = true;
    for (const std::string& frame : stack.frames) {
      if (!first_frame) out += ", ";
      first_frame = false;
      common::appendJsonString(out, frame);
    }
    out += "], \"count\": " + std::to_string(stack.count) + "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  os << out;
}

std::string renderProfileJson(const ProfileReport& report) {
  std::ostringstream os;
  writeProfileJson(os, report);
  return os.str();
}

bool writeProfile(const std::string& path, const ProfileReport& report) {
  const bool ok = writeFileAtomic(
      path, [&](std::ostream& os) { writeProfileJson(os, report); },
      "profile");
  if (ok) {
    info("obs.profile_written",
         {{"path", path},
          {"samples", report.samples},
          {"stacks", report.stacks.size()}});
  }
  return ok;
}

}  // namespace psmgen::obs
