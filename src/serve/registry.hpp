#pragma once
// Live session registry for the prediction server: one SessionRecord
// per accepted connection, kept under a mutex map for the lifetime of
// the connection and summarized by the `/debug/sessions` route.
//
// Records are shared_ptr so the introspection side (HTTP handler thread)
// can hold one while the session thread finishes: a snapshot never
// dangles, a closing session just drops out of the live map. All mutable
// fields are relaxed atomics written by the owning session thread and
// read by the handler thread — monitoring reads tolerate being a few
// frames stale, they must never block the serving path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/flight_recorder.hpp"

namespace psmgen::serve {

/// Live view of one serving session, updated by its connection thread.
struct SessionRecord {
  SessionRecord(std::uint64_t id_in, std::string peer_in)
      : id(id_in),
        peer(std::move(peer_in)),
        start(std::chrono::steady_clock::now()) {}

  const std::uint64_t id;
  const std::string peer;  ///< "ip:port" of the client
  const std::chrono::steady_clock::time_point start;

  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> predictions{0};
  std::atomic<std::uint64_t> wrong_predictions{0};
  std::atomic<std::uint64_t> resyncs{0};
  std::atomic<std::uint64_t> rate_stalls{0};
  /// Id of this session's newest flight-recorder event (0 = none yet).
  std::atomic<std::uint64_t> last_event_id{0};
  /// Session::State as int (serve/session.hpp) — AwaitHello until the
  /// Hello lands, then Streaming/Done/Failed.
  std::atomic<int> state{0};
  /// runtime::QualityStatus as int: 0 ok, 1 degraded, 2 drifted.
  std::atomic<int> drift{0};

  /// Wrong-state-prediction percentage over predictions so far.
  double wspPercent() const {
    const std::uint64_t p = predictions.load(std::memory_order_relaxed);
    if (p == 0) return 0.0;
    return 100.0 *
           static_cast<double>(
               wrong_predictions.load(std::memory_order_relaxed)) /
           static_cast<double>(p);
  }
};

/// Records `event` in the flight recorder and, when `record` is given,
/// publishes the event's id as that session's newest. While the
/// recorder is disabled this is one relaxed load and returns 0.
std::uint64_t recordSessionEvent(obs::FlightEvent event,
                                 SessionRecord* record);

/// Thread-safe map of the currently-open sessions.
class SessionRegistry {
 public:
  /// Creates and registers a record; ids are 1-based and never reused.
  std::shared_ptr<SessionRecord> open(std::string peer);

  /// Unregisters `id`; the record stays alive through any outstanding
  /// shared_ptr (e.g. a snapshot being rendered).
  void close(std::uint64_t id);

  /// The record for a live session, nullptr when not (or no longer) open.
  std::shared_ptr<SessionRecord> find(std::uint64_t id) const;

  /// All live records, ascending id.
  std::vector<std::shared_ptr<SessionRecord>> snapshot() const;

  std::size_t size() const;

  /// Sessions ever opened (== the id handed to the next open()).
  std::uint64_t totalOpened() const {
    return next_id_.load(std::memory_order_relaxed) - 1;
  }

 private:
  // Lock table — mutex_ guards the live map only; the SessionRecords it
  // points to are all-atomic by design (see the header comment) and are
  // read without any lock once a shared_ptr is out.
  mutable common::Mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<SessionRecord>> live_
      GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace psmgen::serve
