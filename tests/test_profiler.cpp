// Tests for the sampling CPU profiler (obs::Profiler).
//
// ITIMER_PROF ticks are delivered against consumed *CPU* time, so every
// capture here drives busy-spin threads and loops until the expected
// samples arrive (with a generous wall-clock deadline) instead of
// assuming a tick count — the suite must stay robust on a loaded
// single-core CI runner and under TSan's ~5-15x slowdown.

#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_span.hpp"

namespace psmgen {

/// Spins until `stop` is raised, burning CPU so ITIMER_PROF ticks land.
/// The volatile sink keeps the loop from folding to nothing at -O2.
/// Deliberately *not* in the anonymous namespace and noinline: external
/// linkage puts it in the -rdynamic dynamic symbol table, so the
/// symbolization test can require this exact frame by name.
__attribute__((noinline)) void profilerTestBurnLoop(
    const std::atomic<bool>& stop) {
  volatile std::uint64_t sink = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 4096; ++i) sink = sink + static_cast<unsigned>(i);
  }
}

namespace {

void burnCpu(const std::atomic<bool>& stop) { profilerTestBurnLoop(stop); }

/// Runs one capture over `threads` busy threads (each bound to the
/// given session id when non-zero) until `done` says the report
/// suffices or the deadline passes.
template <typename DonePredicate>
obs::ProfileReport captureUntil(const obs::ProfilerConfig& config,
                                int threads, std::uint64_t session,
                                DonePredicate done,
                                double deadline_seconds = 20.0) {
  obs::ProfileReport report;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(deadline_seconds);
  do {
    EXPECT_TRUE(obs::profiler().start(config));
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&stop, session] {
        if (session != 0) obs::FlightRecorder::setThreadSession(session);
        burnCpu(stop);
        obs::FlightRecorder::setThreadSession(0);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    for (std::thread& w : workers) w.join();
    report = obs::profiler().stop();
  } while (!done(report) && std::chrono::steady_clock::now() < deadline);
  return report;
}

TEST(Profiler, CapturesSamplesFromBusyThreads) {
  obs::ProfilerConfig config;
  config.hz = 500.0;
  const obs::ProfileReport report = captureUntil(
      config, /*threads=*/2, /*session=*/0,
      [](const obs::ProfileReport& r) { return r.samples >= 10; });
  EXPECT_GE(report.samples, 10u);
  EXPECT_FALSE(report.threads.empty());
  EXPECT_FALSE(report.stacks.empty());
  EXPECT_GT(report.duration_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.hz, 500.0);
  // The folded counts sum to at most the retained samples (stacks that
  // were pure trampoline frames may be dropped, never invented).
  std::uint64_t folded = 0;
  for (const auto& stack : report.stacks) {
    ASSERT_FALSE(stack.frames.empty());
    folded += stack.count;
  }
  EXPECT_LE(folded, report.samples);
  EXPECT_GT(folded, 0u);
}

TEST(Profiler, SymbolizesTheBusyLoop) {
  obs::ProfilerConfig config;
  config.hz = 500.0;
  const obs::ProfileReport report = captureUntil(
      config, /*threads=*/2, /*session=*/0,
      [](const obs::ProfileReport& r) {
        for (const auto& stack : r.stacks) {
          for (const std::string& frame : stack.frames) {
            if (frame.find("profilerTestBurnLoop") != std::string::npos) {
              return true;
            }
          }
        }
        return false;
      });
  // The burn loop has external linkage, so -rdynamic + dladdr must
  // resolve it to a demangled, parameter-stripped name.
  const std::string collapsed = obs::renderCollapsed(report);
  EXPECT_NE(collapsed.find("psmgen::profilerTestBurnLoop"),
            std::string::npos)
      << collapsed;
}

/// ThreadSanitizer defers each signal to its next interceptor and runs
/// the handler from inside its runtime, so under TSan a sample's leaf is
/// a TSan frame, never the interrupted user function.
#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

/// Samples per leaf (self) frame: the last frame of each root-first
/// stack.
std::map<std::string, std::uint64_t> selfCounts(
    const obs::ProfileReport& report) {
  std::map<std::string, std::uint64_t> leaves;
  for (const auto& stack : report.stacks) {
    leaves[stack.frames.back()] += stack.count;
  }
  return leaves;
}

TEST(Profiler, BurnLoopIsTheTopSelfFrame) {
  if (kThreadSanitizer) GTEST_SKIP() << "TSan runs handlers in its runtime";
  obs::ProfilerConfig config;
  config.hz = 500.0;
  const obs::ProfileReport report = captureUntil(
      config, /*threads=*/2, /*session=*/0,
      [](const obs::ProfileReport& r) {
        return selfCounts(r)["psmgen::profilerTestBurnLoop"] >= 10;
      });
  const auto leaves = selfCounts(report);
  ASSERT_FALSE(leaves.empty());
  const auto top = std::max_element(
      leaves.begin(), leaves.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_EQ(top->first, "psmgen::profilerTestBurnLoop")
      << obs::renderCollapsed(report);

  // The handler returns through the signal trampoline (sa_restorer of
  // the installed disposition where the platform has one); it must
  // never be booked as self time, named or not.
  struct sigaction installed {};
  ASSERT_EQ(::sigaction(SIGPROF, nullptr, &installed), 0);
  char restorer[32];
  std::snprintf(restorer, sizeof(restorer), "0x%zx",
                reinterpret_cast<std::size_t>(installed.sa_restorer));
  for (const auto& [leaf, count] : leaves) {
    EXPECT_EQ(leaf.find("__restore_rt"), std::string::npos) << leaf;
    EXPECT_NE(leaf, restorer) << count << " samples";
  }
}

constexpr std::uint64_t kSession = 4242;

TEST(Profiler, AttributesSamplesToTheThreadSession) {
  obs::ProfilerConfig config;
  config.hz = 500.0;
  const obs::ProfileReport report = captureUntil(
      config, /*threads=*/2, kSession,
      [](const obs::ProfileReport& r) {
        const auto it = r.by_session.find(kSession);
        return it != r.by_session.end() && it->second >= 5;
      });
  const auto it = report.by_session.find(kSession);
  ASSERT_NE(it, report.by_session.end());
  EXPECT_GE(it->second, 5u);
}

TEST(Profiler, StartWhileRunningFailsAndLeavesTheCaptureAlive) {
  obs::ProfilerConfig config;
  config.hz = 50.0;
  ASSERT_TRUE(obs::profiler().start(config));
  EXPECT_TRUE(obs::profiler().running());
  EXPECT_FALSE(obs::profiler().start(config));
  EXPECT_TRUE(obs::profiler().running());  // the refusal did not stop it
  obs::profiler().stop();
  EXPECT_FALSE(obs::profiler().running());
  // stop() without a capture is a harmless no-op returning empty.
  const obs::ProfileReport empty = obs::profiler().stop();
  EXPECT_EQ(empty.samples, 0u);
}

TEST(Profiler, RingWraparoundCountsDroppedSamples) {
  obs::ProfilerConfig config;
  config.hz = 1000.0;
  config.ring_capacity = 1;  // clamped up to the floor of 16
  const obs::ProfileReport report = captureUntil(
      config, /*threads=*/1, /*session=*/0,
      [](const obs::ProfileReport& r) { return r.dropped > 0; });
  EXPECT_GT(report.dropped, 0u);
  // The ring retains at most its capacity per thread.
  EXPECT_LE(report.samples, 16u * report.threads.size());
}

TEST(Profiler, ThreadPoolExhaustionCountsOverflowedTicks) {
  obs::ProfilerConfig config;
  config.hz = 1000.0;
  config.max_threads = 1;
  const obs::ProfileReport report = captureUntil(
      config, /*threads=*/3, /*session=*/0,
      [](const obs::ProfileReport& r) {
        return r.overflowed > 0 && r.samples > 0;
      });
  EXPECT_GT(report.overflowed, 0u);
  EXPECT_EQ(report.threads.size(), 1u);
}

TEST(Profiler, ThreadInventoryIsReadableMidCapture) {
  obs::ProfilerConfig config;
  config.hz = 500.0;
  ASSERT_TRUE(obs::profiler().start(config));
  std::atomic<bool> stop{false};
  std::thread worker([&stop] { burnCpu(stop); });
  // Poll until the worker's ring claim shows up (or give up and let the
  // assertions below report what we got).
  std::vector<obs::ProfileReport::Thread> inventory;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    inventory = obs::profiler().threadInventory();
    if (!inventory.empty() && inventory.front().samples > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  worker.join();
  obs::profiler().stop();
  ASSERT_FALSE(inventory.empty());
  EXPECT_GT(inventory.front().samples, 0u);
  EXPECT_NE(inventory.front().tid, 0u);
}

TEST(Profiler, RendersJsonAndWritesAtomically) {
  obs::ProfilerConfig config;
  config.hz = 500.0;
  const obs::ProfileReport report = captureUntil(
      config, /*threads=*/1, /*session=*/7,
      [](const obs::ProfileReport& r) { return r.samples >= 5; });

  const std::string json = obs::renderProfileJson(report);
  EXPECT_NE(json.find("\"schema\": \"psmgen.profile.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\": "), std::string::npos);
  EXPECT_NE(json.find("\"by_session\": ["), std::string::npos);
  EXPECT_NE(json.find("\"session\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"stacks\": ["), std::string::npos);
  EXPECT_NE(json.find("\"lane_name\": "), std::string::npos);

  const std::string path = ::testing::TempDir() + "/psmgen_profile_test.json";
  ASSERT_TRUE(obs::writeProfile(path, report));
  std::ifstream dumped(path);
  ASSERT_TRUE(dumped.good());
  std::stringstream content;
  content << dumped.rdbuf();
  EXPECT_EQ(content.str(), json);
  // Atomic contract: no .tmp litter next to the dump.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Profiler, EmitsFlightEventsOnStartAndStop) {
  obs::flightRecorder().configure(256);
  obs::flightRecorder().setEnabled(true);
  obs::ProfilerConfig config;
  config.hz = 50.0;
  ASSERT_TRUE(obs::profiler().start(config));
  obs::profiler().stop();
  std::ostringstream os;
  obs::flightRecorder().writeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"kind\": \"profile_start\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\": \"profile_stop\""), std::string::npos)
      << json;
  obs::flightRecorder().setEnabled(false);
}

// ------------------------------------------ signal-handler interplay

TEST(Profiler, FatalDumpHandlerMasksSigprofAndViceVersa) {
  ASSERT_TRUE(obs::installFatalSignalDump());
  for (const int fatal : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    struct sigaction action {};
    ASSERT_EQ(sigaction(fatal, nullptr, &action), 0);
    EXPECT_EQ(sigismember(&action.sa_mask, SIGPROF), 1)
        << "fatal signal " << fatal << " does not mask SIGPROF";
  }
  // The profiler's SIGPROF disposition reciprocates once installed.
  obs::ProfilerConfig config;
  config.hz = 50.0;
  ASSERT_TRUE(obs::profiler().start(config));
  struct sigaction prof {};
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &prof), 0);
  for (const int fatal : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    EXPECT_EQ(sigismember(&prof.sa_mask, fatal), 1)
        << "SIGPROF handler does not mask fatal signal " << fatal;
  }
  obs::profiler().stop();
  EXPECT_FALSE(obs::inFatalSignalDump());
}

/// Stress: high-rate sampling while flight dumps fire from the same
/// process (the same try-lock dump path the fatal-signal handler
/// takes). The assertion is survival + a coherent report — the capture
/// keeps sampling through repeated dump traffic without deadlocking or
/// corrupting either side.
TEST(Profiler, SamplesWhileForcedFlightDumpsFire) {
  obs::flightRecorder().configure(1024);
  obs::flightRecorder().setEnabled(true);
  obs::flightRecorder().setDumpDir(::testing::TempDir());

  obs::ProfilerConfig config;
  config.hz = 997.0;
  ASSERT_TRUE(obs::profiler().start(config));

  std::atomic<bool> stop{false};
  std::vector<std::thread> burners;
  for (int t = 0; t < 2; ++t) {
    burners.emplace_back([&stop] {
      obs::FlightRecorder::setThreadSession(91);
      // Record while burning so the dumps have fresh events to race on.
      volatile std::uint64_t sink = 0;
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int j = 0; j < 2048; ++j) sink = sink + static_cast<unsigned>(j);
        obs::FlightEvent event;
        event.kind = static_cast<std::uint16_t>(obs::FlightEventKind::Mark);
        event.detail = static_cast<std::uint32_t>(++i);
        obs::flightRecorder().record(event);
      }
      obs::FlightRecorder::setThreadSession(0);
    });
  }
  // The forced dumps use the same try-lock path as the fatal-signal
  // handler (triggerDumpFromSignal), interleaved with profiling ticks.
  int dumps = 0;
  for (int round = 0; round < 20; ++round) {
    if (!obs::flightRecorder().triggerDumpFromSignal("forced_test").empty()) {
      ++dumps;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& b : burners) b.join();
  const obs::ProfileReport report = obs::profiler().stop();

  EXPECT_GT(dumps, 0);
  EXPECT_GT(report.samples, 0u);
  obs::flightRecorder().setEnabled(false);
  obs::flightRecorder().setDumpDir("");
}

}  // namespace
}  // namespace psmgen
