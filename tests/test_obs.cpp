// Tests of the observability layer (src/obs): metrics registry exactness
// and cost policy, histogram quantiles, tracer span collection, logger
// formats/levels, and the golden shape of the --metrics-out/--trace-out
// JSON dumps produced by an instrumented end-to-end flow run.
//
// Every TEST runs in its own process (gtest_discover_tests), so the
// process-global logger/registry/tracer can be configured freely.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/flow.hpp"
#include "obs/obs.hpp"

namespace psmgen {
namespace {

using common::BitVector;

/// Minimal structural JSON check: quotes balanced outside strings and
/// braces/brackets balanced — catches truncated or mis-nested output
/// without pulling in a JSON parser.
bool jsonShapeValid(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, DisabledRegistryIsANoOp) {
  obs::Registry& reg = obs::metrics();
  reg.setEnabled(false);
  obs::Counter& c = reg.counter("test.noop_counter");
  obs::Gauge& g = reg.gauge("test.noop_gauge");
  obs::Histogram& h = reg.histogram("test.noop_hist");
  c.add(42);
  g.set(3.14);
  h.record(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(Metrics, ConcurrentCounterIncrementsSumExactly) {
  obs::Registry& reg = obs::metrics();
  reg.setEnabled(true);
  obs::Counter& c = reg.counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  reg.setEnabled(false);
}

TEST(Metrics, HandlesAreStableAndFindOrCreate) {
  obs::Registry& reg = obs::metrics();
  obs::Counter& a = reg.counter("test.stable");
  obs::Counter& b = reg.counter("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
  obs::Registry& reg = obs::metrics();
  reg.setEnabled(true);
  obs::Counter& c = reg.counter("test.reset");
  reg.gauge("test.reset_gauge").set(7.0);
  reg.histogram("test.reset_hist").record(5.0);
  c.add(3);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.gauge("test.reset_gauge").value(), 0.0);
  EXPECT_EQ(reg.histogram("test.reset_hist").snapshot().count, 0u);
  EXPECT_TRUE(reg.enabled());  // reset keeps enablement
  reg.setEnabled(false);
}

TEST(Metrics, HistogramQuantileEdgeCases) {
  obs::Registry& reg = obs::metrics();
  reg.setEnabled(true);
  obs::Histogram& empty = reg.histogram("test.hist_empty");
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.snapshot().p95, 0.0);

  obs::Histogram& one = reg.histogram("test.hist_one");
  one.record(7.5);
  EXPECT_EQ(one.quantile(0.0), 7.5);
  EXPECT_EQ(one.quantile(0.5), 7.5);
  EXPECT_EQ(one.quantile(1.0), 7.5);

  obs::Histogram& two = reg.histogram("test.hist_two");
  two.record(10.0);
  two.record(20.0);
  // Nearest-rank: ceil(0.5 * 2) = 1 -> first sorted sample.
  EXPECT_EQ(two.quantile(0.5), 10.0);
  EXPECT_EQ(two.quantile(0.51), 20.0);
  EXPECT_EQ(two.quantile(1.0), 20.0);

  obs::Histogram& many = reg.histogram("test.hist_many");
  for (int i = 100; i >= 1; --i) many.record(static_cast<double>(i));
  const obs::HistogramSnapshot s = many.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_EQ(s.p50, 50.0);   // ceil(0.5 * 100) = 50th sorted value
  EXPECT_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  reg.setEnabled(false);
}

TEST(Metrics, HistogramCapKeepsTotalsExact) {
  obs::Registry& reg = obs::metrics();
  reg.setEnabled(true);
  obs::Histogram& h = reg.histogram("test.hist_cap");
  const std::size_t n = obs::Histogram::kMaxSamples + 1000;
  for (std::size_t i = 0; i < n; ++i) h.record(1.0);
  h.record(123.0);
  const obs::HistogramSnapshot s = h.snapshot();
  // count/sum/min/max stay exact past the sample-buffer cap; quantiles
  // come from the first kMaxSamples values (deterministically all 1.0).
  EXPECT_EQ(s.count, n + 1);
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(n) + 123.0);
  EXPECT_EQ(s.max, 123.0);
  EXPECT_EQ(s.p95, 1.0);
  reg.setEnabled(false);
}

TEST(Metrics, JsonDumpGoldenShape) {
  obs::Registry& reg = obs::metrics();
  reg.setEnabled(true);
  reg.counter("test.json_counter").add(5);
  reg.gauge("test.json_gauge").set(2.5);
  reg.histogram("test.json_hist").record(4.0);
  std::ostringstream os;
  reg.writeJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(jsonShapeValid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"psmgen.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\": {\"count\": 1"), std::string::npos);
  for (const char* key : {"\"counters\"", "\"gauges\"", "\"histograms\"",
                          "\"sum\"", "\"mean\"", "\"p50\"", "\"p95\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  reg.setEnabled(false);
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, DisabledSpanRecordsNothing) {
  obs::Tracer& tr = obs::tracer();
  tr.setEnabled(false);
  tr.clear();
  { obs::Span span("test.disabled"); }
  EXPECT_EQ(tr.eventCount(), 0u);
}

TEST(Tracer, SpansLandInJsonWithLaneMetadata) {
  obs::Tracer& tr = obs::tracer();
  tr.clear();
  tr.setEnabled(true);
  { obs::Span span("test.phase", "unit"); }
  tr.setEnabled(false);
  ASSERT_EQ(tr.eventCount(), 1u);
  std::ostringstream os;
  tr.writeJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(jsonShapeValid(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.phase\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  tr.clear();
}

TEST(Tracer, SpanArmedAtConstructionNotDestruction) {
  obs::Tracer& tr = obs::tracer();
  tr.clear();
  tr.setEnabled(false);
  {
    obs::Span span("test.armed_late");
    tr.setEnabled(true);  // enabling mid-span must not record half a span
  }
  EXPECT_EQ(tr.eventCount(), 0u);
  tr.setEnabled(false);
}

// ----------------------------------------------------------------- logger

TEST(Logger, LevelFiltersAndKeyValueFormat) {
  obs::Logger& log = obs::logger();
  std::ostringstream sink;
  log.setSink(&sink);
  log.setLevel(obs::LogLevel::Info);
  log.setFormat(obs::Logger::Format::KeyValue);
  obs::debug("test.suppressed");
  obs::info("test.visible", {{"n", 42}, {"name", "psm"}, {"ok", true}});
  log.setSink(nullptr);
  const std::string out = sink.str();
  EXPECT_EQ(out.find("test.suppressed"), std::string::npos);
  EXPECT_NE(out.find("level=info"), std::string::npos);
  EXPECT_NE(out.find("event=test.visible"), std::string::npos);
  EXPECT_NE(out.find("n=42"), std::string::npos);
  EXPECT_NE(out.find("name=\"psm\""), std::string::npos);
  EXPECT_NE(out.find("ok=true"), std::string::npos);
  log.setLevel(obs::LogLevel::Warn);  // default
}

TEST(Logger, JsonFormatEmitsOneValidObjectPerLine) {
  obs::Logger& log = obs::logger();
  std::ostringstream sink;
  log.setSink(&sink);
  log.setLevel(obs::LogLevel::Info);
  log.setFormat(obs::Logger::Format::Json);
  obs::info("test.json", {{"value", 1.5}, {"text", "a \"quoted\" one"}});
  log.setSink(nullptr);
  log.setFormat(obs::Logger::Format::KeyValue);
  log.setLevel(obs::LogLevel::Warn);
  const std::string out = sink.str();
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  EXPECT_TRUE(jsonShapeValid(out)) << out;
  EXPECT_NE(out.find("\"event\":\"test.json\""), std::string::npos);
  EXPECT_NE(out.find("\"value\":1.5"), std::string::npos);
  EXPECT_NE(out.find("\\\"quoted\\\""), std::string::npos);
}

TEST(Logger, ParseLogLevelRoundTrip) {
  EXPECT_EQ(obs::parseLogLevel("trace"), obs::LogLevel::Trace);
  EXPECT_EQ(obs::parseLogLevel("debug"), obs::LogLevel::Debug);
  EXPECT_EQ(obs::parseLogLevel("info"), obs::LogLevel::Info);
  EXPECT_EQ(obs::parseLogLevel("warn"), obs::LogLevel::Warn);
  EXPECT_EQ(obs::parseLogLevel("error"), obs::LogLevel::Error);
  EXPECT_EQ(obs::parseLogLevel("off"), obs::LogLevel::Off);
  EXPECT_FALSE(obs::parseLogLevel("verbose").has_value());
  EXPECT_FALSE(obs::parseLogLevel("").has_value());
}

// ------------------------------------------------------------- PhaseScope

TEST(PhaseScope, SetsPhaseSecondsGauge) {
  obs::Registry& reg = obs::metrics();
  reg.setEnabled(true);
  { obs::PhaseScope scope("unit_test"); }
  EXPECT_GE(reg.gauge("flow.phase_seconds.unit_test").value(), 0.0);
  // The gauge exists and was written (set() stores even 0-duration).
  std::ostringstream os;
  reg.writeJson(os);
  EXPECT_NE(os.str().find("flow.phase_seconds.unit_test"), std::string::npos);
  reg.setEnabled(false);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolObs, WorkerIdAndStats) {
  EXPECT_EQ(common::ThreadPool::currentWorkerId(), -1);
  common::ThreadPool pool(4);
  if (pool.threadCount() < 2) GTEST_SKIP() << "single-threaded environment";
  constexpr std::size_t kN = 10000;
  std::vector<int> lanes(kN, -2);
  pool.parallelFor(kN, [&](std::size_t i) {
    lanes[i] = common::ThreadPool::currentWorkerId();
  });
  const auto stats = pool.workerStats();
  ASSERT_EQ(stats.size(), pool.threadCount());
  std::uint64_t iterations = 0;
  for (const auto& s : stats) iterations += s.iterations;
  EXPECT_EQ(iterations, kN);
  EXPECT_GE(pool.jobsExecuted(), 1u);
  // Every iteration ran either on the caller (-1) or a worker in
  // [1, threadCount).
  for (const int lane : lanes) {
    EXPECT_TRUE(lane == -1 ||
                (lane >= 1 && lane < static_cast<int>(pool.threadCount())))
        << lane;
  }
}

// ----------------------------------------------------- end-to-end outputs

trace::VariableSet toyVars() {
  trace::VariableSet vars;
  vars.add("run", 1, trace::VarKind::Input);
  vars.add("data", 8, trace::VarKind::Input);
  vars.add("out", 8, trace::VarKind::Output);
  return vars;
}

void buildToyPair(std::uint64_t seed, std::size_t ops,
                  trace::FunctionalTrace& f, trace::PowerTrace& p) {
  common::Rng rng(seed);
  f = trace::FunctionalTrace(toyVars());
  p = trace::PowerTrace();
  BitVector prev_data(8, 0);
  BitVector data(8, 0);
  for (std::size_t op = 0; op < ops; ++op) {
    const bool busy = op % 2 == 1;
    const std::size_t len = 4 + rng.uniform(8);
    for (std::size_t i = 0; i < len; ++i) {
      if (busy) data = rng.bits(8);
      const unsigned hd = BitVector::hammingDistance(data, prev_data);
      f.append({BitVector(1, busy), data, BitVector(8, busy ? 0xFF : 0)});
      p.append(busy ? 2.0 + 0.5 * hd : 1.0);
      prev_data = data;
    }
  }
}

TEST(ObsEndToEnd, FlowRunProducesGoldenShapedDumps) {
  const std::string metrics_path =
      ::testing::TempDir() + "/obs_metrics_e2e.json";
  const std::string trace_path = ::testing::TempDir() + "/obs_trace_e2e.json";

  obs::Options opts;
  opts.metrics_out = metrics_path;
  opts.trace_out = trace_path;

  obs::configure(opts);
  core::FlowConfig cfg;
  cfg.miner.max_toggle_rate = 0.6;
  core::CharacterizationFlow flow(cfg);
  for (std::uint64_t s = 1; s <= 2; ++s) {
    trace::FunctionalTrace f;
    trace::PowerTrace p;
    buildToyPair(s, 40, f, p);
    flow.addTrainingTrace(std::move(f), std::move(p));
  }
  flow.build();
  ASSERT_TRUE(obs::flushOutputs());

  const std::string metrics_json = slurp(metrics_path);
  ASSERT_FALSE(metrics_json.empty());
  EXPECT_TRUE(jsonShapeValid(metrics_json)) << metrics_json;
  for (const char* key :
       {"\"schema\": \"psmgen.metrics.v1\"", "flow.phase_seconds.mine",
        "flow.phase_seconds.join", "flow.rows_evaluated",
        "merge.test.epsilon.accepted", "miner.atoms_kept", "flow.states"}) {
    EXPECT_NE(metrics_json.find(key), std::string::npos) << key;
  }

  const std::string trace_json = slurp(trace_path);
  ASSERT_FALSE(trace_json.empty());
  EXPECT_TRUE(jsonShapeValid(trace_json)) << trace_json;
  for (const char* key : {"\"traceEvents\"", "\"ph\": \"X\"", "flow.build",
                          "flow.mine", "thread_name"}) {
    EXPECT_NE(trace_json.find(key), std::string::npos) << key;
  }

  obs::metrics().setEnabled(false);
  obs::tracer().setEnabled(false);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

/// The determinism contract: the same traces characterized with the full
/// obs stack enabled produce a bit-identical PSM.
TEST(ObsEndToEnd, InstrumentationDoesNotChangeResults) {
  auto characterize = [](bool instrumented) {
    obs::metrics().setEnabled(instrumented);
    obs::tracer().setEnabled(instrumented);
    core::FlowConfig cfg;
    cfg.miner.max_toggle_rate = 0.6;
    core::CharacterizationFlow flow(cfg);
    for (std::uint64_t s = 1; s <= 2; ++s) {
      trace::FunctionalTrace f;
      trace::PowerTrace p;
      buildToyPair(s, 30, f, p);
      flow.addTrainingTrace(std::move(f), std::move(p));
    }
    flow.build();
    return flow.psm();
  };
  const core::Psm plain = characterize(false);
  const core::Psm instrumented = characterize(true);
  obs::metrics().setEnabled(false);
  obs::tracer().setEnabled(false);
  EXPECT_TRUE(plain == instrumented);
}

// ---------------------------------------------------------- rate limiting

TEST(RateLimiter, BurstThenThrottleThenRefill) {
  // 1 token/s, burst of 2, driven on a deterministic clock.
  obs::RateLimiter limiter(1.0, 2.0);
  EXPECT_TRUE(limiter.tickAt(0.0).allowed);   // burst token 1
  EXPECT_TRUE(limiter.tickAt(0.0).allowed);   // burst token 2
  EXPECT_FALSE(limiter.tickAt(0.0).allowed);  // bucket empty
  EXPECT_FALSE(limiter.tickAt(0.5).allowed);  // only half a token back
  const auto refilled = limiter.tickAt(1.1);  // > 1 token refilled
  EXPECT_TRUE(refilled.allowed);
  // The two drops were counted and handed to the first allowed call.
  EXPECT_EQ(refilled.suppressed, 2u);
  EXPECT_EQ(limiter.tickAt(1.1).suppressed, 0u);  // tally was consumed
}

TEST(RateLimiter, RefillClampsAtBurst) {
  obs::RateLimiter limiter(10.0, 3.0);
  ASSERT_TRUE(limiter.tickAt(0.0).allowed);
  // A long quiet period must not bank more than `burst` tokens.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(limiter.tickAt(100.0).allowed) << i;
  }
  EXPECT_FALSE(limiter.tickAt(100.0).allowed);
}

TEST(RateLimiter, SuppressedCountAccumulatesAcrossDrops) {
  obs::RateLimiter limiter(1.0, 1.0);
  ASSERT_TRUE(limiter.tickAt(0.0).allowed);
  for (int i = 0; i < 25; ++i) {
    EXPECT_FALSE(limiter.tickAt(0.1).allowed);
  }
  EXPECT_EQ(limiter.tickAt(2.0).suppressed, 25u);
}

/// N threads hammering one limiter: every call must be accounted for
/// exactly once — either allowed, or counted in the `suppressed` tally
/// handed to a later allowed call. Conservation catches both lost
/// updates (a racy read-modify-write of suppressed_) and double counts.
TEST(RateLimiter, ConcurrentCallersConserveTheSuppressedCount) {
  // Generous rate so the final flush tick below never needs to wait
  // long for a token, tiny burst so most concurrent calls are drops.
  obs::RateLimiter limiter(200.0, 2.0);
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 500;
  std::atomic<std::uint64_t> allowed{0};
  std::atomic<std::uint64_t> suppressed_seen{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&limiter, &allowed, &suppressed_seen] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const obs::RateLimiter::Decision d = limiter.tick();
        if (d.allowed) {
          allowed.fetch_add(1, std::memory_order_relaxed);
          suppressed_seen.fetch_add(d.suppressed,
                                    std::memory_order_relaxed);
        } else {
          // A drop never reports a suppressed tally — that is the
          // property that makes the tally conserve: it is handed out
          // exactly once, on the next allowed call.
          EXPECT_EQ(d.suppressed, 0u);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Flush the residual tally: keep ticking (real clock, so a token
  // arrives within ~5ms at 200/s) until one more call is allowed and
  // collects whatever the workers left behind. The flush loop's own
  // failed ticks land in the same tally, so they are counted and
  // subtracted back out.
  std::uint64_t flushed = 0;
  std::uint64_t flush_drops = 0;
  for (int i = 0; i < 100000; ++i) {
    const obs::RateLimiter::Decision d = limiter.tick();
    if (d.allowed) {
      flushed = d.suppressed;
      break;
    }
    ++flush_drops;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(flushed, flush_drops);
  const std::uint64_t total =
      allowed.load() + suppressed_seen.load() + (flushed - flush_drops);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
}

// ----------------------------------------------------------- atomic dumps

TEST(ObsEndToEnd, FlushWritesAtomicallyAndLeavesNoTempFile) {
  const std::string metrics_path =
      ::testing::TempDir() + "/obs_metrics_atomic.json";
  obs::Options opts;
  opts.metrics_out = metrics_path;
  obs::configure(opts);
  obs::metrics().counter("predict.rows").add(5);

  ASSERT_TRUE(obs::flushOutputs());
  const std::string json = slurp(metrics_path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(jsonShapeValid(json)) << json;
  // The staging file was renamed over the target, not left behind.
  std::ifstream tmp(metrics_path + ".tmp");
  EXPECT_FALSE(tmp.good());

  // A second flush atomically replaces the previous dump.
  obs::metrics().counter("predict.rows").add(1);
  ASSERT_TRUE(obs::flushOutputs());
  EXPECT_NE(slurp(metrics_path), json);

  obs::configure(obs::Options{});
  std::remove(metrics_path.c_str());
}

TEST(ObsEndToEnd, FlushReportsFailureOnUnwritablePath) {
  obs::Options opts;
  opts.metrics_out =
      ::testing::TempDir() + "/no_such_dir_psmgen/metrics.json";
  obs::configure(opts);
  EXPECT_FALSE(obs::flushOutputs());
  obs::configure(obs::Options{});
}

}  // namespace
}  // namespace psmgen
