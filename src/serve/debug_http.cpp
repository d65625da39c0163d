#include "serve/debug_http.hpp"

#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>

#include "common/build_info.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_span.hpp"
#include "runtime/quality_monitor.hpp"
#include "serve/server.hpp"

namespace psmgen::serve {

namespace {

const char* sessionStateName(int state) {
  switch (static_cast<Session::State>(state)) {
    case Session::State::AwaitHello: return "await_hello";
    case Session::State::Streaming: return "streaming";
    case Session::State::Done: return "done";
    case Session::State::Failed: return "failed";
  }
  return "?";
}

void appendDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

/// Parses query parameter `name` into `value`, which keeps its default
/// when the parameter is absent. Returns false — and fills `error` with
/// a 400 body — on anything but a whole integer (integral `T`) or
/// number in [min, max].
template <typename T>
bool parseParam(const obs::HttpServer::Request& request, const char* name,
                T min, T max, T& value, std::string& error) {
  const std::optional<std::string> raw = request.findQueryParam(name);
  if (!raw) return true;
  constexpr bool kIntegral = std::is_integral_v<T>;
  std::optional<T> parsed;
  if constexpr (kIntegral) {
    const auto n = common::parseInteger(*raw, static_cast<long long>(min),
                                        static_cast<long long>(max));
    if (n) parsed = static_cast<T>(*n);
  } else {
    parsed = common::parseReal(*raw, min, max);
  }
  if (!parsed) {
    error = std::string(name) + " must be " +
            (kIntegral ? "an integer" : "a number") + " in [" +
            std::to_string(min) + ", " + std::to_string(max) + "]\n";
    return false;
  }
  value = *parsed;
  return true;
}

}  // namespace

std::string buildInfoJson(const std::string& model_path,
                          const serialize::PsmModel& model) {
  std::string out = "{\"name\": \"psmgen\", \"version\": ";
  common::appendJsonString(out, common::kVersion);
  out += ", \"git_sha\": ";
  common::appendJsonString(out, common::kGitSha);
  out += ", \"build_type\": ";
  common::appendJsonString(out, common::kBuildType);
  out += ", \"psm_format_version\": " +
         std::to_string(serialize::kFormatVersion);
  out += ", \"model\": {\"path\": ";
  common::appendJsonString(out, model_path);
  out += ", \"states\": " + std::to_string(model.psm.stateCount());
  out += ", \"transitions\": " + std::to_string(model.psm.transitionCount());
  out += ", \"propositions\": " + std::to_string(model.domain.size());
  out += "}}\n";
  return out;
}

std::string renderSessionsJson(const PredictionServer& server,
                               std::size_t limit) {
  const auto records = server.sessions().snapshot();
  const auto now = std::chrono::steady_clock::now();
  std::string out;
  out.reserve(256 + records.size() * 192);
  out += "{\n  \"schema\": \"psmgen.sessions.v1\",\n  \"active\": ";
  out += std::to_string(records.size());
  out += ",\n  \"total_opened\": ";
  out += std::to_string(server.sessions().totalOpened());
  out += ",\n  \"truncated\": ";
  out += records.size() > limit ? "true" : "false";
  out += ",\n  \"sessions\": [";
  bool first = true;
  std::size_t rendered = 0;
  for (const auto& r : records) {
    if (rendered++ >= limit) break;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"id\": " + std::to_string(r->id) + ", \"peer\": ";
    common::appendJsonString(out, r->peer);
    out += ", \"uptime_seconds\": ";
    appendDouble(out,
                 std::chrono::duration<double>(now - r->start).count());
    out += ", \"state\": \"";
    out += sessionStateName(r->state.load(std::memory_order_relaxed));
    out += "\", \"rows\": ";
    out += std::to_string(r->rows.load(std::memory_order_relaxed));
    out += ", \"frames\": ";
    out += std::to_string(r->frames.load(std::memory_order_relaxed));
    out += ", \"predictions\": ";
    out += std::to_string(r->predictions.load(std::memory_order_relaxed));
    out += ", \"wsp_percent\": ";
    appendDouble(out, r->wspPercent());
    out += ", \"resyncs\": ";
    out += std::to_string(r->resyncs.load(std::memory_order_relaxed));
    out += ", \"drift\": \"";
    out += runtime::driftStatusName(static_cast<runtime::DriftStatus>(
        r->drift.load(std::memory_order_relaxed)));
    out += "\", \"rate_stalls\": ";
    out += std::to_string(r->rate_stalls.load(std::memory_order_relaxed));
    out += ", \"last_event_id\": ";
    out += std::to_string(r->last_event_id.load(std::memory_order_relaxed));
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string renderEventsJson(std::uint64_t session, std::size_t limit) {
  std::ostringstream os;
  obs::flightRecorder().writeJson(os, "on_demand", session, limit);
  return os.str();
}

void registerDebugRoutes(obs::HttpServer& http, const PredictionServer& server,
                         std::string build_json) {
  using Request = obs::HttpServer::Request;
  using Response = obs::HttpServer::Response;

  http.handle("/debug/sessions", [&server](const Request& request) -> Response {
    std::size_t limit = kMaxSessionsRendered;
    std::string error;
    if (!parseParam(request, "limit", std::size_t{1}, kMaxSessionsRendered,
                    limit, error)) {
      return {400, "text/plain; charset=utf-8", error};
    }
    return {200, "application/json; charset=utf-8",
            renderSessionsJson(server, limit)};
  });

  http.handle("/debug/events", [&server](const Request& request) -> Response {
    std::uint64_t session = 0;
    const std::string raw = request.queryParam("session");
    if (!raw.empty()) {
      const auto parsed = common::parseInteger(
          raw, 1, std::numeric_limits<long long>::max());
      if (!parsed) {
        return {400, "text/plain; charset=utf-8",
                "session must be a positive integer\n"};
      }
      session = static_cast<std::uint64_t>(*parsed);
      const bool live = server.sessions().find(session) != nullptr;
      if (!live && !obs::flightRecorder().hasSession(session)) {
        return {404, "text/plain; charset=utf-8",
                "unknown session " + raw + "\n"};
      }
    }
    std::size_t limit = kMaxEventsRendered;
    std::string error;
    if (!parseParam(request, "limit", std::size_t{1}, kMaxEventsRendered,
                    limit, error)) {
      return {400, "text/plain; charset=utf-8", error};
    }
    return {200, "application/json; charset=utf-8",
            renderEventsJson(session, limit)};
  });

  http.handle("/debug/build",
              [build_json = std::move(build_json)](const Request&) -> Response {
                return {200, "application/json; charset=utf-8", build_json};
              });

  http.handle("/debug/pprof/profile", [](const Request& request) -> Response {
    double seconds = 2.0;
    double hz = 97.0;
    std::string error;
    if (!parseParam(request, "seconds", 1.0, 30.0, seconds, error) ||
        !parseParam(request, "hz", 1.0, 1000.0, hz, error)) {
      return {400, "text/plain; charset=utf-8", error};
    }
    obs::ProfilerConfig config;
    config.hz = hz;
    if (!obs::profiler().start(config)) {
      return {503, "text/plain; charset=utf-8",
              "profiler busy: another capture owns the SIGPROF timer "
              "(whole-run --profile-out, or a concurrent scrape)\n"};
    }
    // Blocks this scrape (and, the server being single-threaded, any
    // concurrent one — they queue in the listen backlog) while the
    // workload threads keep running and taking ticks.
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const obs::ProfileReport report = obs::profiler().stop();
    std::string body = obs::renderCollapsed(report);
    if (body.empty()) {
      body = "# no samples: process consumed no CPU time during the "
             "capture window\n";
    }
    return {200, "text/plain; charset=utf-8", std::move(body)};
  });

  http.handle("/debug/pprof/threads", [](const Request&) -> Response {
    const auto threads = obs::profiler().threadInventory();
    std::string out;
    out.reserve(128 + threads.size() * 96);
    out += "{\n  \"schema\": \"psmgen.profile_threads.v1\",\n";
    out += "  \"capturing\": ";
    out += obs::profiler().running() ? "true" : "false";
    out += ",\n  \"threads\": [";
    bool first = true;
    for (const auto& t : threads) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"index\": " + std::to_string(t.index);
      out += ", \"tid\": " + std::to_string(t.tid);
      out += ", \"lane\": " + std::to_string(t.lane);
      out += ", \"lane_name\": ";
      common::appendJsonString(out, obs::laneName(t.lane));
      out += ", \"samples\": " + std::to_string(t.samples) + "}";
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return {200, "application/json; charset=utf-8", out};
  });
}

}  // namespace psmgen::serve
