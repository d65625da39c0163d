#include "serve/session.hpp"

#include <chrono>
#include <thread>

#include "core/psm.hpp"
#include "core/psm_simulator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/trace_io.hpp"

namespace psmgen::serve {

namespace {

// EstRow::flags is the row verdict's flag byte, sent as is.
static_assert(kEstFlagLost == core::RowVerdict::kLost &&
                  kEstFlagWrongPrediction ==
                      core::RowVerdict::kWrongPrediction &&
                  kEstFlagUnexpected == core::RowVerdict::kUnexpected &&
                  kEstFlagResync == core::RowVerdict::kResync,
              "the EstRow wire flags are the row verdict's bits");

/// FlightEvent::state encoding of the predictor's current state.
std::uint16_t flightState(const runtime::OnlinePredictor& predictor) {
  const core::StateId state = predictor.currentState();
  if (state == core::kNoState || state < 0 || state >= 0xFFFF) {
    return obs::kFlightNoState;
  }
  return static_cast<std::uint16_t>(state);
}

/// Per-frame registry handles, resolved once: a name lookup takes the
/// global registry mutex, which every session thread would contend on.
struct FrameInstruments {
  obs::Counter& frames = obs::metrics().counter("serve.frames_total");
  obs::Counter& rows = obs::metrics().counter("serve.rows_total");
  obs::Histogram& latency_ms =
      obs::metrics().histogram("serve.frame_latency_ms");
};

FrameInstruments& instruments() {
  static FrameInstruments i;
  return i;
}

/// Burst capacity of the per-session token bucket: one second's worth of
/// rows, so a client that paces itself never stalls and a client that
/// bursts is smoothed to the configured rate.
std::unique_ptr<obs::RateLimiter> makeLimiter(double rows_per_second) {
  if (rows_per_second <= 0.0) return nullptr;
  return std::make_unique<obs::RateLimiter>(rows_per_second, rows_per_second);
}

}  // namespace

Session::Session(const serialize::PsmModel& model, Config config)
    : model_(model),
      config_(std::move(config)),
      predictor_(model),
      monitor_(model.psm, config_.quality),
      decoder_(config_.max_frame_payload),
      limiter_(makeLimiter(config_.rows_per_second)) {}

void Session::bindRecord(std::shared_ptr<SessionRecord> record) {
  record_ = std::move(record);
}

void Session::syncRecord() {
  if (!record_) return;
  const runtime::PredictorStats& s = predictor_.stats();
  record_->rows.store(s.rows, std::memory_order_relaxed);
  record_->predictions.store(s.predictions, std::memory_order_relaxed);
  record_->wrong_predictions.store(s.wrong_predictions,
                                   std::memory_order_relaxed);
  record_->resyncs.store(s.resyncs, std::memory_order_relaxed);
  record_->state.store(static_cast<int>(state_), std::memory_order_relaxed);
  record_->drift.store(static_cast<int>(monitor_.status()),
                       std::memory_order_relaxed);
}

bool Session::consume(const void* data, std::size_t size, std::string& out) {
  if (state_ == State::Done || state_ == State::Failed) return false;
  try {
    decoder_.feed(data, size);
    while (auto frame = decoder_.next()) {
      if (!handleFrame(*frame, out)) return false;
    }
  } catch (const ProtocolError& e) {
    fail(e.code(), e.what(), out);
    return false;
  } catch (const std::exception& e) {
    fail(ErrorCode::Internal, e.what(), out);
    return false;
  }
  return true;
}

void Session::abort(ErrorCode code, const std::string& message,
                    std::string& out) {
  if (state_ == State::Done || state_ == State::Failed) return;
  fail(code, message, out);
}

FinSummary Session::summary() const {
  const runtime::PredictorStats& s = predictor_.stats();
  FinSummary fin;
  fin.rows = s.rows;
  fin.predictions = s.predictions;
  fin.wrong_predictions = s.wrong_predictions;
  fin.unexpected_behaviours = s.unexpected_behaviours;
  fin.lost_instants = s.lost_instants;
  fin.resyncs = s.resyncs;
  fin.drift_status = static_cast<std::uint8_t>(monitor_.status());
  return fin;
}

std::uint64_t Session::recordEvent(obs::FlightEventKind kind,
                                   std::uint32_t detail, std::uint32_t flags,
                                   float latency_ms) {
  obs::FlightEvent event;
  event.session = id();
  event.row = rows_;
  event.detail = detail;
  event.kind = static_cast<std::uint16_t>(kind);
  event.state = flightState(predictor_);
  event.flags = flags;
  event.latency_ms = latency_ms;
  return recordSessionEvent(event, record_.get());
}

bool Session::handleFrame(const Frame& frame, std::string& out) {
  instruments().frames.add(1);
  switch (state_) {
    case State::AwaitHello: {
      if (frame.type != FrameType::Hello) {
        throw ProtocolError(ErrorCode::Protocol,
                            "expected Hello as the first frame");
      }
      const HelloRequest hello = decodeHello(frame.payload);
      if (hello.version != kProtocolVersion) {
        throw ProtocolError(
            ErrorCode::VersionMismatch,
            "protocol version " + std::to_string(hello.version) +
                " not supported (server speaks " +
                std::to_string(kProtocolVersion) + ")");
      }
      if (!hello.model_id.empty() && hello.model_id != config_.model_id) {
        throw ProtocolError(ErrorCode::BadModel,
                            "this server serves '" + config_.model_id +
                                "', not '" + hello.model_id + "'");
      }
      const std::string served_vars =
          trace::formatVariableDeclaration(model_.domain.variables());
      if (!hello.variables.empty() && hello.variables != served_vars) {
        throw ProtocolError(ErrorCode::BadVariables,
                            "variable declaration mismatch: model is '" +
                                served_vars + "'");
      }
      HelloReply reply;
      reply.version = kProtocolVersion;
      reply.model_id = config_.model_id;
      reply.psm_format_version = serialize::kFormatVersion;
      reply.states = static_cast<std::uint32_t>(model_.psm.stateCount());
      reply.transitions =
          static_cast<std::uint32_t>(model_.psm.transitionCount());
      reply.variables = served_vars;
      out += encodeHelloOk(reply);
      state_ = State::Streaming;
      recordEvent(obs::FlightEventKind::Hello);
      syncRecord();
      return true;
    }
    case State::Streaming: {
      if (frame.type == FrameType::Fin) {
        out += encodeFinAck(summary());
        state_ = State::Done;
        recordEvent(obs::FlightEventKind::Fin);
        syncRecord();
        return false;
      }
      if (frame.type != FrameType::Rows) {
        throw ProtocolError(ErrorCode::Protocol,
                            "expected Rows or Fin while streaming");
      }
      const auto t0 = std::chrono::steady_clock::now();
      const auto rows = decodeRows(frame.payload, model_.domain.variables());
      std::vector<EstRow> estimates;
      estimates.reserve(rows.size());
      std::uint32_t frame_flags = 0;
      for (const auto& row : rows) {
        if (limiter_) {
          bool stalled = false;
          while (!limiter_->tick().allowed) {
            if (!stalled) {
              obs::metrics().counter("serve.backpressure_stalls").add(1);
              frame_flags |= obs::kFlightRateStall;
              if (record_) {
                record_->rate_stalls.fetch_add(1, std::memory_order_relaxed);
              }
              stalled = true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        EstRow est;
        est.estimate = predictor_.predictRow(row);
        const core::RowVerdict& verdict = predictor_.lastRow();
        monitor_.observe(verdict, est.estimate);
        est.flags = verdict.flags;
        // The flight-recorder flag bits deliberately mirror the EstRow
        // wire flags (same four low bits), plus the serving-side bits.
        frame_flags |= est.flags;
        estimates.push_back(est);
      }
      rows_ += rows.size();
      instruments().rows.add(rows.size());
      const double latency_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
      const runtime::DriftStatus drift = monitor_.status();
      if (drift == runtime::DriftStatus::Degraded) {
        frame_flags |= obs::kFlightDegraded;
      } else if (drift == runtime::DriftStatus::Drifted) {
        frame_flags |= obs::kFlightDrifted;
      }
      const std::uint64_t event_id = recordEvent(
          obs::FlightEventKind::Rows, static_cast<std::uint32_t>(rows.size()),
          frame_flags, static_cast<float>(latency_ms));
      // The two-arg overload stamps the exemplar with Unix wall-clock
      // time — the flight event's recorder-epoch ts_us would read as
      // 1970 to OpenMetrics consumers.
      instruments().latency_ms.record(latency_ms, event_id);
      if (record_) {
        record_->frames.fetch_add(1, std::memory_order_relaxed);
      }
      syncRecord();
      out += encodeEst(estimates);
      return true;
    }
    case State::Done:
    case State::Failed:
      return false;
  }
  return false;
}

void Session::fail(ErrorCode code, const std::string& message,
                   std::string& out) {
  // Administrative closes (drain, idle, capacity) are drops, not peer
  // protocol violations; the two counters answer different questions.
  const bool administrative = code == ErrorCode::Draining ||
                              code == ErrorCode::IdleTimeout ||
                              code == ErrorCode::Busy;
  if (administrative) {
    obs::metrics().counter("serve.sessions_dropped").add(1);
  } else {
    obs::metrics().counter("serve.protocol_errors").add(1);
  }
  recordEvent(obs::FlightEventKind::ProtocolError,
              static_cast<std::uint32_t>(code));
  // A real peer protocol violation is exactly the moment the recent
  // window matters — snapshot it before the connection closes (a no-op
  // while the recorder is disabled).
  if (!administrative) {
    obs::flightRecorder().triggerDump("protocol_error", id());
  }
  static obs::RateLimiter error_warn_limiter(/*tokens_per_second=*/1.0,
                                             /*burst=*/5.0);
  if (const auto d = error_warn_limiter.tick(); d.allowed) {
    obs::warn("serve.session_error", {{"session", id()},
                                      {"code", errorCodeName(code)},
                                      {"message", message},
                                      {"suppressed", d.suppressed}});
  }
  out += encodeError({code, message});
  state_ = State::Failed;
  syncRecord();
}

}  // namespace psmgen::serve
