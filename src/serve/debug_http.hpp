#pragma once
// Live-introspection HTTP routes for the prediction service, served by
// the same loopback obs::HttpServer that exposes /metrics:
//
//   /debug/sessions[?limit=K]   per-session table of every live session
//                               (peer, uptime, rows, WSP, drift status,
//                               rate-limit stalls, last event id)
//   /debug/events[?session=N&limit=K]
//                               recent flight-recorder events, newest
//                               window, optionally filtered to a session
//                               (404 when N is neither live nor in the
//                               recorded window; 400 when non-numeric)
//   /debug/build                build/model identity JSON
//   /debug/pprof/profile?seconds=N&hz=F
//                               on-demand CPU profile: blocks the scrape
//                               for N seconds (1..30, default 2) of
//                               sampling at F Hz (1..1000, default 97),
//                               then returns Brendan-Gregg collapsed
//                               stacks; 503 while another capture (a
//                               whole-run --profile-out, or a concurrent
//                               scrape) owns the process's one SIGPROF
//                               timer
//   /debug/pprof/threads        thread inventory of the current/last
//                               capture with lane names (main /
//                               pool-worker-N / serve-session-N)
//
// All responses are bounded: the session table and event list cap at
// `limit` rows (1..kMax*, default kMax*, 400 on garbage; a `truncated`
// marker says when the cap bit), so a scrape of a fully loaded server
// can never produce an unbounded body. GET/HEAD only, loopback only —
// both inherited from obs::HttpServer. /debug/pprof/profile holds the
// single-threaded server for its whole capture window: concurrent
// /metrics scrapes queue in the listen backlog — acceptable for a
// debugging route, and the 30 s ceiling bounds the damage.

#include <cstddef>
#include <string>

#include "obs/http_server.hpp"
#include "serialize/psm_artifact.hpp"

namespace psmgen::serve {

class PredictionServer;

inline constexpr std::size_t kMaxSessionsRendered = 256;
inline constexpr std::size_t kMaxEventsRendered = 256;

/// `psmgen.sessions.v1` JSON for `server`'s live sessions, capped at
/// `limit` rows (callers pass a value already clamped to 1..kMax).
std::string renderSessionsJson(const PredictionServer& server,
                               std::size_t limit = kMaxSessionsRendered);

/// `psmgen.events.v1` JSON of the newest flight-recorder events,
/// optionally filtered to one session (0 = all), capped at `limit`.
std::string renderEventsJson(std::uint64_t session,
                             std::size_t limit = kMaxEventsRendered);

/// The `psmgen serve` /buildinfo and /debug/build body: build identity
/// plus the loaded artifact's format version and shape, so a scrape can
/// tell *which* model a drifting instance is serving.
std::string buildInfoJson(const std::string& model_path,
                          const serialize::PsmModel& model);

/// Registers the /debug routes on `http`. `build_json` is served
/// verbatim by /debug/build. `server` must outlive `http`.
void registerDebugRoutes(obs::HttpServer& http, const PredictionServer& server,
                         std::string build_json);

}  // namespace psmgen::serve
