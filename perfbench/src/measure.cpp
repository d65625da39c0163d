// Measurement of one run.
//
// Untraced (--trace 0): the workload's own path runs back to back for
// --seconds, every output is checked, and the end-to-end metrics are
// taken. Operations: one IP job (train_long), one IP stream
// (predict_csv).
//
// Traced (--trace 1): a short untraced pass, the same pass with spans
// around every public call (their ratio is the tracing overhead), then a
// layer sweep that times the layers the workload's own path does not
// reach on the workload's own data, so every per-layer metric is measured
// on every workload. The per-layer map is in perfbench/README.md.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/flow.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "spans.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace core = psmgen::core;
namespace obs = psmgen::obs;
namespace runtime = psmgen::runtime;
namespace serialize = psmgen::serialize;
namespace serve = psmgen::serve;

namespace {

/// Flight-recorder ring size `psmgen serve` runs with by default.
constexpr std::size_t kFlightEvents = 1024;
/// Rows per job the layer sweep replays.
constexpr std::size_t kSweepRows = 20000;

const char* const kPhases[] = {"mine",     "signatures", "intern", "xu_walk",
                               "simplify", "join",       "refine", "hmm"};

using Row = std::vector<psmgen::common::BitVector>;
using Frame = std::vector<Row>;

/// Rows per Rows frame on the serving path: small enough that per-frame
/// costs dominate.
constexpr std::size_t kFrameRows = 8;

/// What a socket-free serve::Session answered to Hello, one Rows frame per
/// frame, and Fin.
struct SessionReplay {
  std::string replies;  ///< the Est rows as estBytes() renders them
  std::uint64_t fin_rows = 0;
  std::uint64_t rows = 0;
  std::uint64_t wire_bytes = 0;  ///< Rows + Est frames, headers included
};

/// Splits rows into kFrameRows-row frames (the last one may be short).
std::vector<Frame> toFrames(const std::vector<Row>& rows) {
  std::vector<Frame> frames;
  for (std::size_t off = 0; off < rows.size(); off += kFrameRows) {
    const std::size_t n = std::min(kFrameRows, rows.size() - off);
    frames.emplace_back(rows.begin() + static_cast<std::ptrdiff_t>(off),
                        rows.begin() + static_cast<std::ptrdiff_t>(off + n));
  }
  return frames;
}

/// Est rows as compared on the wire: f64 bits (LE) + flags, 9 bytes each.
std::string estBytes(const std::vector<serve::EstRow>& rows) {
  std::string out;
  out.reserve(rows.size() * 9);
  for (const serve::EstRow& row : rows) {
    char bytes[8];
    std::memcpy(bytes, &row.estimate, sizeof bytes);
    out.append(bytes, sizeof bytes);
    out.push_back(static_cast<char>(row.flags));
  }
  return out;
}

/// Replays `frames` through a serve::Session with no socket, timing
/// encodeRows, decodeRows, Session::consume and decodeEst per frame (rolled
/// up under one "bench.replay" span of job `id`).
SessionReplay replaySession(const serialize::PsmModel& model,
                            const std::vector<Frame>& frames, Tracer& tr,
                            std::uint32_t id) {
  const auto& vars = model.domain.variables();
  SpanScope root(&tr, "bench.replay", Tracer::kNoParent, id);
  const int enc = tr.rollup("serve.encode_rows", root.id(), id);
  const int dec = tr.rollup("serve.decode_rows", root.id(), id);
  const int con = tr.rollup("serve.session_consume", root.id(), id);
  const int dest = tr.rollup("serve.decode_est", root.id(), id);
  auto timed = [&](int span, Clock::time_point t0, std::uint64_t calls = 1) {
    tr.add(span, secondsSince(t0), calls);
  };
  // The payload of the single frame `bytes` holds, which must be `type`.
  auto payload = [](const std::string& bytes, serve::FrameType type) {
    if (bytes.size() < 5 || bytes[0] != static_cast<char>(type)) {
      throw std::runtime_error("session replay: unexpected reply");
    }
    return std::vector<std::uint8_t>(bytes.begin() + 5, bytes.end());
  };

  serve::Session session(model, {});
  std::string out;
  serve::HelloRequest hello;
  hello.variables = psmgen::trace::formatVariableDeclaration(vars);
  const std::string hello_bytes = serve::encodeHello(hello);
  session.consume(hello_bytes.data(), hello_bytes.size(), out);
  SessionReplay replay;
  for (const Frame& frame : frames) {
    auto t0 = Clock::now();
    const std::string bytes = serve::encodeRows(frame);
    timed(enc, t0);
    const auto rows_payload = payload(bytes, serve::FrameType::Rows);
    t0 = Clock::now();
    const auto decoded = serve::decodeRows(rows_payload, vars);
    timed(dec, t0, decoded.size());
    out.clear();
    t0 = Clock::now();
    session.consume(bytes.data(), bytes.size(), out);
    timed(con, t0);
    const auto est_payload = payload(out, serve::FrameType::Est);
    t0 = Clock::now();
    const std::vector<serve::EstRow> est = serve::decodeEst(est_payload);
    timed(dest, t0);
    replay.replies += estBytes(est);
    replay.wire_bytes += bytes.size() + out.size();
    replay.rows += frame.size();
  }
  out.clear();
  const std::string fin = serve::encodeFin();
  session.consume(fin.data(), fin.size(), out);
  replay.fin_rows =
      serve::decodeFinAck(payload(out, serve::FrameType::FinAck)).rows;
  return replay;
}

/// True when `replies` (estBytes form) carry exactly `estimates`.
bool sameEstimates(const std::string& replies,
                   const std::vector<double>& estimates) {
  if (replies.size() != 9 * estimates.size()) return false;
  for (std::size_t t = 0; t < estimates.size(); ++t) {
    if (std::memcmp(replies.data() + 9 * t, &estimates[t], 8) != 0) {
      return false;
    }
  }
  return true;
}

/// The end-to-end readings of one pass over the workload's own path.
///
/// Each vCPU of a shared host slows down on its own, by up to 2x for
/// seconds at a time, while the fastest of many short samples repeats
/// within a few percent. So every timing is a best-of: per IP job over
/// the passes of a run.
struct PassStats {
  std::uint64_t rows = 0;  ///< rows through the path, all passes
  std::uint64_t ops = 0;   ///< operations completed
  double rows_per_s = 0.0;
  double op_p50_ms = 0.0;
  double op_p99_ms = 0.0;
  double cpu_us_per_row = 0.0;
  std::size_t samples = 0;  ///< passes the best-of ran over
};

/// Per-layer facts gathered while traced code runs; spans carry the times.
struct LayerFacts {
  double build_passes = 0;  ///< training passes over all jobs
  std::uint64_t raw_states = 0;
  std::uint64_t states = 0;
  std::vector<double> pool_busy;
  double merge_accepted = 0;
  double merge_attempted = 0;
  runtime::PredictorStats stream;  ///< rows/lost/resyncs: one pass, all jobs
  double wire_bytes = 0;
  double wire_rows = 0;
  std::uint64_t rt_frames = 0;
  std::uint64_t flight_events = 0;
  double server_p50_ms = 0.0;
};

struct Context {
  Context(const Options& options, Outcome& outcome)
      : opts(options),
        jobs(jobsFor(options.workload, options.seed)),
        ref(readReference(options.dir + "/reference.txt")),
        threads(nprocs()),
        out(outcome) {}

  const Options& opts;
  std::vector<Job> jobs;
  Reference ref;
  unsigned threads;
  Outcome& out;
  bool perturb_pending = true;
  LayerFacts facts;

  /// True exactly once when --perturb is set: that output gets corrupted.
  bool takePerturb() {
    const bool take = opts.perturb && perturb_pending;
    if (take) perturb_pending = false;
    return take;
  }
};

void enableObs(bool metrics) {
  obs::metrics().setEnabled(metrics);
  obs::metrics().reset();
}

void enableServingObs() {
  // As `psmgen serve` runs: registry and flight recorder on.
  enableObs(true);
  obs::flightRecorder().configure(kFlightEvents);
  obs::flightRecorder().setEnabled(true);
}

void addStats(runtime::PredictorStats& into, const runtime::PredictorStats& s) {
  into.rows += s.rows;
  into.lost_instants += s.lost_instants;
  into.resyncs += s.resyncs;
}

// --- train_long: training CSVs in -> .psm artifact out --------------------

/// Trains one job from its CSVs with the psmgen train thread default
/// (all CPUs) and writes the artifact to `out_path`; returns the job's
/// wall time. Traced: spans per trace load, build (with the build's own
/// phase timings as children) and save.
double trainJob(Context& ctx, const Job& job, Tracer* tr, std::uint32_t id,
                const std::string& out_path, bool first_pass) {
  const auto t0 = Clock::now();
  {
    SpanScope root(tr, "bench.job", Tracer::kNoParent, id);
    core::FlowConfig config;
    config.num_threads = ctx.threads;
    core::CharacterizationFlow flow(config);
    for (std::size_t i = 0; i < job.plan.size(); ++i) {
      psmgen::trace::FunctionalTrace functional;
      psmgen::trace::PowerTrace power;
      {
        SpanScope s(tr, "trace.load_functional", root.id(), id);
        functional =
            psmgen::trace::loadFunctionalTrace(job.trainFunctional(ctx.opts.dir, i));
      }
      {
        SpanScope s(tr, "trace.load_power", root.id(), id);
        power = psmgen::trace::loadPowerTrace(job.trainPower(ctx.opts.dir, i));
      }
      flow.addTrainingTrace(std::move(functional), std::move(power));
    }
    unpinCpu();  // the build's pool threads inherit this thread's affinity
    // Traced: zero the registry so the build's merge tallies stand alone.
    if (tr != nullptr) obs::metrics().reset();
    {
      SpanScope s(tr, "core.build", root.id(), id);
      const core::BuildReport report = flow.build();
      if (tr != nullptr) {
        for (const char* phase : kPhases) {
          tr->add(tr->rollup(std::string("core.") + phase, s.id(), id),
                  obs::metrics()
                      .gauge(std::string("flow.phase_seconds.") + phase)
                      .value());
        }
        ctx.facts.pool_busy.push_back(
            obs::metrics().gauge("pool.utilization_percent").value() / 100.0);
        for (const auto& [name, n] : obs::metrics().snapshot().counters) {
          if (name.rfind("merge.test.", 0) != 0) continue;
          ctx.facts.merge_attempted += static_cast<double>(n);
          if (name.size() > 9 &&
              name.compare(name.size() - 9, 9, ".accepted") == 0) {
            ctx.facts.merge_accepted += static_cast<double>(n);
          }
        }
        if (first_pass) {
          ctx.facts.raw_states += report.raw_states;
          ctx.facts.states += report.states;
        }
      }
    }
    SpanScope s(tr, "serialize.save", root.id(), id);
    serialize::savePsmModel(out_path, flow.psm(), flow.domain());
  }
  const double seconds = secondsSince(t0);
  std::uint64_t digest = fileDigest(out_path);
  if (ctx.takePerturb()) digest ^= 1;
  ctx.out.check(hex64(digest) == lookup(ctx.ref, "artifact." + job.name()));
  return seconds;
}

// --- predict_csv: artifact + eval CSV in -> estimates out -----------------

/// Loads the job's artifact and streams `csv` through the predictor on
/// one thread; checks the estimate digest and predict.* counters against
/// the set-up's OnlinePredictor::predictTrace when `ref_key` is given.
/// Traced: reader and predictor calls are timed row by row (rolled up).
double predictJob(Context& ctx, const Job& job, Tracer* tr, std::uint32_t id,
                  const std::string& csv, const std::string& ref_key,
                  std::size_t max_rows, std::vector<Row>* keep,
                  std::vector<double>* estimates,
                  runtime::PredictorStats& stats) {
  const auto t0 = Clock::now();
  Fnv digest;
  const bool corrupt = ctx.takePerturb();
  bool first = true;
  auto sink = [&](double e) {
    if (first && corrupt) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &e, sizeof e);
      bits ^= 1;
      std::memcpy(&e, &bits, sizeof e);
    }
    first = false;
    digest.addDouble(e);
    if (estimates != nullptr) estimates->push_back(e);
  };
  {
    SpanScope root(tr, "bench.job", Tracer::kNoParent, id);
    std::optional<serialize::PsmModel> model;
    {
      SpanScope s(tr, "serialize.load", root.id(), id);
      model.emplace(serialize::loadPsmModel(job.model(ctx.opts.dir)));
    }
    runtime::StreamingTraceReader reader(csv);
    runtime::OnlinePredictor predictor(*model);
    if (tr == nullptr && keep == nullptr && max_rows == 0) {
      stats = predictor.predictStream(
          reader, [&](std::size_t, double e) { sink(e); });
    } else {
      const int next_id =
          tr ? tr->rollup("runtime.reader_next", root.id(), id) : -1;
      const int row_id =
          tr ? tr->rollup("runtime.predict_row", root.id(), id) : -1;
      Row row;
      for (std::size_t n = 0; max_rows == 0 || n < max_rows; ++n) {
        auto c0 = Clock::now();
        const bool more = reader.next(row);
        if (tr != nullptr) tr->add(next_id, secondsSince(c0));
        if (!more) break;
        c0 = Clock::now();
        const double e = predictor.predictRow(row);
        if (tr != nullptr) tr->add(row_id, secondsSince(c0));
        sink(e);
        if (keep != nullptr) keep->push_back(row);
      }
      stats = predictor.stats();
    }
  }
  const double seconds = secondsSince(t0);
  if (!ref_key.empty()) {
    ctx.out.check(hex64(digest.h) == lookup(ctx.ref, "estimates." + ref_key) &&
                  statsLine(stats) ==
                      lookup(ctx.ref, "stats." + ref_key));
  }
  return seconds;
}

/// The workload's own path: passes over every job until the deadline
/// (at least one; a pass in progress always completes). Per job, the
/// fastest pass counts; op latencies are those per-job bests, so p99 is
/// the slowest IP's job.
PassStats mainPass(Context& ctx, Tracer* tr, Clock::time_point deadline) {
  // The registry is on only where the traced run reads build phases.
  enableObs(tr != nullptr && ctx.opts.workload == Workload::TrainLong);
  const std::size_t n = ctx.jobs.size();
  std::vector<double> best_s(n, 0.0);
  std::vector<double> best_cpu(n, 0.0);
  std::vector<std::uint64_t> rows(n, 0);
  PassStats ps;
  std::uint32_t id = 0;
  for (std::size_t pass = 0; pass == 0 || Clock::now() < deadline; ++pass) {
    for (std::size_t j = 0; j < n; ++j) {
      const Job& job = ctx.jobs[j];
      // Predicting and loading CSVs are single-threaded; trainJob lets the
      // build's pool use every CPU.
      pinToFastestCpu();
      const double cpu0 = cpuSeconds();
      double s = 0.0;
      if (ctx.opts.workload == Workload::TrainLong) {
        s = trainJob(ctx, job, tr, id++, job.output(ctx.opts.dir), pass == 0);
        rows[j] = job.trainRows();
      } else {
        runtime::PredictorStats stats;
        s = predictJob(ctx, job, tr, id++, job.eval(ctx.opts.dir, 0),
                       job.name() + ".0", 0, nullptr, nullptr, stats);
        rows[j] = stats.rows;
        if (tr != nullptr && pass == 0) addStats(ctx.facts.stream, stats);
      }
      const double cpu = cpuSeconds() - cpu0;
      best_s[j] = pass == 0 ? s : std::min(best_s[j], s);
      best_cpu[j] = pass == 0 ? cpu : std::min(best_cpu[j], cpu);
      ps.rows += rows[j];
      ++ps.ops;
    }
    if (tr != nullptr && ctx.opts.workload == Workload::TrainLong) {
      ctx.facts.build_passes += 1;
    }
    ++ps.samples;
  }
  double seconds = 0.0;
  double cpu = 0.0;
  std::uint64_t pass_rows = 0;
  std::vector<double> job_ms;
  for (std::size_t j = 0; j < n; ++j) {
    seconds += best_s[j];
    cpu += best_cpu[j];
    pass_rows += rows[j];
    job_ms.push_back(1e3 * best_s[j]);
  }
  ps.rows_per_s = static_cast<double>(pass_rows) / seconds;
  ps.op_p50_ms = quantile(job_ms, 0.5);
  ps.op_p99_ms = quantile(job_ms, 0.99);
  ps.cpu_us_per_row = 1e6 * cpu / static_cast<double>(pass_rows);
  return ps;
}

// --- traced layer sweep ----------------------------------------------------

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Streams `frames` over one session of an in-process PredictionServer on
/// an ephemeral port, as `psmgen serve` runs it (registry and flight
/// recorder on); every Est reply must equal `expected` (estBytes form) and
/// the FinAck must count every row.
void tcpSession(Context& ctx, const serialize::PsmModel& model,
                const std::vector<Frame>& frames, const std::string& expected,
                Tracer& tr, std::uint32_t id) {
  serve::ServerConfig config;
  config.model_id = "perfbench";
  serve::PredictionServer server(model, config);
  if (!server.listen()) throw std::runtime_error("server cannot listen");
  server.start();
  obs::metrics().reset();
  const std::uint64_t events0 = obs::flightRecorder().lastEventId();
  std::string replies;
  std::size_t rows = 0;
  {
    SpanScope root(&tr, "bench.session", Tracer::kNoParent, id);
    serve::Client client;
    {
      SpanScope s(&tr, "serve.connect", root.id(), id);
      if (!client.connect(server.port())) {
        throw std::runtime_error("connect failed");
      }
      client.hello();
    }
    const int rt = tr.rollup("serve.round_trip", root.id(), id);
    for (const Frame& frame : frames) {
      const auto t0 = Clock::now();
      const std::vector<serve::EstRow> est = client.predict(frame);
      tr.add(rt, secondsSince(t0));
      replies += estBytes(est);
      rows += frame.size();
    }
    SpanScope s(&tr, "serve.finish", root.id(), id);
    ctx.out.check(replies == expected && client.finish().rows == rows);
  }
  server.stop();
  ctx.facts.rt_frames += frames.size();
  ctx.facts.flight_events += obs::flightRecorder().lastEventId() - events0;
  ctx.facts.server_p50_ms =
      obs::metrics().histogram("serve.frame_latency_ms").quantile(0.5);
}

/// Times the layers the workload's own path does not reach, on the
/// workload's own data: training from its CSVs, artifact load, streaming
/// prediction, simulator steps, the serving codec and a one-client TCP
/// session. Fixed work: at most kSweepRows rows per job.
void layerSweep(Context& ctx, Tracer& tr) {
  const Workload w = ctx.opts.workload;
  unpinCpu();  // the server's threads inherit this thread's affinity
  enableServingObs();
  std::uint32_t id = 1u << 30;
  for (const Job& job : ctx.jobs) {
    ++id;
    if (w != Workload::TrainLong) {
      ctx.facts.build_passes += 1.0 / static_cast<double>(ctx.jobs.size());
      trainJob(ctx, job, &tr, id, job.output(ctx.opts.dir), true);
    }
    // Rows to replay: the eval trace, or for train_long the first
    // training trace (the rows the served model was fit on).
    const std::string csv = job.eval_seeds.empty()
                                ? job.trainFunctional(ctx.opts.dir, 0)
                                : job.eval(ctx.opts.dir, 0);
    std::vector<Row> rows;
    std::vector<double> estimates;
    runtime::PredictorStats stats;
    predictJob(ctx, job, w == Workload::PredictCsv ? nullptr : &tr, id, csv,
               "", kSweepRows, &rows, &estimates, stats);
    if (w != Workload::PredictCsv) addStats(ctx.facts.stream, stats);

    const serialize::PsmModel model =
        serialize::loadPsmModel(job.model(ctx.opts.dir));
    {
      SpanScope root(&tr, "bench.replay", Tracer::kNoParent, id);
      const core::PsmSimulator sim(model.psm, model.domain);
      auto session = sim.startSession();
      const int step = tr.rollup("core.sim_step", root.id(), id);
      bool exact = true;
      for (std::size_t t = 0; t < rows.size(); ++t) {
        const auto t0 = Clock::now();
        const double e = session.step(rows[t]);
        tr.add(step, secondsSince(t0));
        exact = exact && e == estimates[t];
      }
      ctx.out.check(exact);
    }
    const std::vector<Frame> frames = toFrames(rows);
    const SessionReplay replay = replaySession(model, frames, tr, id);
    ctx.facts.wire_bytes += static_cast<double>(replay.wire_bytes);
    ctx.facts.wire_rows += static_cast<double>(replay.rows);
    ctx.out.check(sameEstimates(replay.replies, estimates) &&
                  replay.fin_rows == rows.size());
    tcpSession(ctx, model, frames, replay.replies, tr, id);
  }
}

double perCall(const Tracer::Totals& t, double scale) {
  return t.calls == 0 ? 0.0 : scale * t.seconds / static_cast<double>(t.calls);
}

void tracedRun(Context& ctx) {
  const double slice = 0.3 * ctx.opts.seconds;
  const PassStats plain = mainPass(ctx, nullptr, after(slice));
  Tracer main_tr;
  const PassStats traced = mainPass(ctx, &main_tr, after(slice));
  Tracer sweep_tr;
  layerSweep(ctx, sweep_tr);
  main_tr.write(ctx.opts.dir + "/spans-main.tsv");
  sweep_tr.write(ctx.opts.dir + "/spans-sweep.tsv");

  Tracer all;
  all.merge(main_tr);
  all.merge(sweep_tr);
  const auto totals = all.totals();
  auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  const LayerFacts& f = ctx.facts;
  auto add = [&](const std::string& name, double value, const char* unit) {
    ctx.out.metrics.push_back({name, value, unit});
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  // trace + core + common: per training pass over all of the jobs.
  const double passes = f.build_passes;
  add("trace.csv_load_s",
      ratio(total("trace.load_functional").seconds +
                total("trace.load_power").seconds,
            passes),
      "s");
  const char* const phase_metric[] = {
      "core.mine_s",    "core.signatures_s", "core.intern_s",
      "core.xu_walk_s", "core.simplify_s",   "core.join_s",
      "core.refine_s",  "core.hmm_build_s"};
  for (std::size_t i = 0; i < std::size(kPhases); ++i) {
    add(phase_metric[i],
        ratio(total(std::string("core.") + kPhases[i]).seconds, passes), "s");
  }
  add("core.raw_states", static_cast<double>(f.raw_states), "count");
  add("core.states", static_cast<double>(f.states), "count");
  add("core.merge_accept_ratio", ratio(f.merge_accepted, f.merge_attempted),
      "ratio");
  double busy = 0.0;
  for (const double b : f.pool_busy) busy += b;
  add("common.pool_busy_ratio",
      ratio(busy, static_cast<double>(f.pool_busy.size())), "ratio");
  add("core.sim_step_ns_per_row", perCall(total("core.sim_step"), 1e9), "ns");

  // serialize
  add("serialize.save_ms", perCall(total("serialize.save"), 1e3), "ms");
  add("serialize.load_ms", perCall(total("serialize.load"), 1e3), "ms");
  double model_bytes = 0.0;
  for (const Job& job : ctx.jobs) {
    model_bytes += static_cast<double>(
        std::filesystem::file_size(job.model(ctx.opts.dir)));
  }
  add("serialize.model_bytes",
      model_bytes / static_cast<double>(ctx.jobs.size()), "bytes");

  // runtime
  add("runtime.reader_ns_per_row", perCall(total("runtime.reader_next"), 1e9),
      "ns");
  add("runtime.predict_ns_per_row", perCall(total("runtime.predict_row"), 1e9),
      "ns");
  const runtime::PredictorStats& stream = f.stream;
  add("runtime.lost_ratio",
      ratio(static_cast<double>(stream.lost_instants),
            static_cast<double>(stream.rows)),
      "ratio");
  add("runtime.resyncs", static_cast<double>(stream.resyncs), "count");

  // serve: codec and session replays per frame, TCP round trip per frame.
  const double encode_us = perCall(total("serve.encode_rows"), 1e6);
  const double consume_us = perCall(total("serve.session_consume"), 1e6);
  const double decode_est_us = perCall(total("serve.decode_est"), 1e6);
  const double round_trip_us = perCall(total("serve.round_trip"), 1e6);
  add("serve.encode_rows_us_per_frame", encode_us, "us");
  add("serve.decode_rows_ns_per_row", perCall(total("serve.decode_rows"), 1e9),
      "ns");
  add("serve.session_consume_us_per_frame", consume_us, "us");
  add("serve.decode_est_us_per_frame", decode_est_us, "us");
  add("serve.round_trip_us_per_frame", round_trip_us, "us");
  add("serve.unexplained_share",
      1.0 - ratio(encode_us + consume_us + decode_est_us, round_trip_us),
      "ratio");
  add("serve.server_frame_p50_ms", f.server_p50_ms, "ms");
  add("serve.wire_bytes_per_row", ratio(f.wire_bytes, f.wire_rows), "bytes");

  // obs and the bench's own remainder.
  add("obs.flight_events_per_frame",
      ratio(static_cast<double>(f.flight_events),
            static_cast<double>(f.rt_frames)),
      "count");
  add("obs.trace_overhead_share",
      1.0 - ratio(traced.rows_per_s, plain.rows_per_s), "ratio");
  const auto main_totals = main_tr.totals();
  double bench_self = 0.0;
  double bench_wall = 0.0;
  for (const auto& [name, t] : main_totals) {
    if (name.rfind("bench.", 0) != 0) continue;
    bench_self += t.self;
    bench_wall += t.seconds;
  }
  add("bench.unexplained_share", ratio(bench_self, bench_wall), "ratio");

  ctx.out.info.emplace_back("untraced_rows_per_s",
                            std::to_string(plain.rows_per_s));
  ctx.out.info.emplace_back("traced_rows_per_s",
                            std::to_string(traced.rows_per_s));
  ctx.out.info.emplace_back("round_trip_frames", std::to_string(f.rt_frames));
}

}  // namespace

Outcome runMeasure(const Options& opts) {
  Outcome out;
  Context ctx(opts, out);
  if (opts.trace) {
    tracedRun(ctx);
    return out;
  }
  const PassStats ps = mainPass(ctx, nullptr, after(opts.seconds));
  out.metrics.push_back({"rows_per_s", ps.rows_per_s, "rows/s"});
  out.metrics.push_back({"op_p50_ms", ps.op_p50_ms, "ms"});
  out.metrics.push_back({"op_p99_ms", ps.op_p99_ms, "ms"});
  out.metrics.push_back({"cpu_us_per_row", ps.cpu_us_per_row, "us"});
  out.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  out.info.emplace_back("ops", std::to_string(ps.ops));
  out.info.emplace_back("rows", std::to_string(ps.rows));
  out.info.emplace_back("best_of", std::to_string(ps.samples));
  return out;
}

}  // namespace perfbench
