#pragma once
// Multi-client TCP prediction server.
//
// One PredictionServer owns a common::LoopbackListener, an accept
// thread, and one connection thread per live session — thread-per-
// connection on the same listener and send loop obs::HttpServer uses. The model
// is shared immutably across every session: each connection gets its own
// OnlinePredictor + QualityMonitor (inside serve::Session), and nothing
// mutates the Psm after load, so sessions never contend.
//
// Robustness is structural, not best-effort:
//   - bounded read/write handling: the connection pump reads at most one
//     buffer, feeds the session, and fully flushes the response before
//     reading again — a client that stops reading stops being read from
//     (TCP backpressure), and no per-connection queue can grow without
//     bound;
//   - per-session token-bucket rate limits (Config::rows_per_second);
//   - idle timeout (no client bytes) and I/O timeout (client not
//     draining our writes → slow-client drop);
//   - max-frame cap (protocol level) and max-sessions cap (accept
//     level: over-cap connects get Error{Busy} and an immediate close);
//   - graceful drain: beginDrain() refuses new connects and interrupts
//     each session after its in-flight frames are fully answered
//     (Error{Draining}); stop() drains and joins every thread.
//
// Counters/gauges land in the process metrics registry (serve.*), so
// `psmgen serve`'s /metrics endpoint exports them for free.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.hpp"
#include "common/socket.hpp"
#include "common/thread_annotations.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/registry.hpp"
#include "serve/session.hpp"

namespace psmgen::serve {

struct ServerConfig {
  /// TCP port on 127.0.0.1 (0 = ephemeral, resolved by port()).
  std::uint16_t port = 0;
  int backlog = 64;
  /// Live-session cap; further connects get Error{Busy}.
  std::size_t max_sessions = 256;
  std::size_t max_frame_payload = kMaxFramePayload;
  /// Per-session row rate limit; 0 = unlimited.
  double rows_per_second = 0.0;
  /// Close a session when the client sends nothing for this long.
  int idle_timeout_ms = 30000;
  /// send() deadline; a client not draining our writes for this long is
  /// dropped (slow-client guard).
  int io_timeout_ms = 5000;
  /// Identity announced in HelloOk (e.g. the artifact path).
  std::string model_id;
  /// Drift thresholds applied to every session's QualityMonitor.
  runtime::QualityMonitorConfig quality;
};

class PredictionServer {
 public:
  /// `model` must outlive the server; it is shared by every session.
  PredictionServer(const serialize::PsmModel& model, ServerConfig config);
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Binds 127.0.0.1:port. Returns false after an error log on failure.
  bool listen();
  /// The bound port (resolves port 0); 0 before a successful listen().
  std::uint16_t port() const { return listener_.port(); }
  /// Spawns the accept loop; listen() must have succeeded.
  void start();

  /// Flips into draining: the listener closes (new connects are refused
  /// by the kernel), live sessions are interrupted after their in-flight
  /// frames are answered. Does not block; stop() joins.
  void beginDrain();
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Drains, then joins the accept thread and every session thread.
  /// Idempotent; also run by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  std::size_t activeSessions() const {
    return active_.load(std::memory_order_relaxed);
  }
  /// Sessions accepted over the server's lifetime.
  std::size_t totalSessions() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Live session records, one per open connection — the data behind the
  /// `/debug/sessions` route. Safe to read from any thread.
  const SessionRegistry& sessions() const { return registry_; }

 private:
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptLoop();
  void runConnection(int fd, std::string peer);
  void reapFinishedLocked() REQUIRES(conns_mutex_);

  const serialize::PsmModel& model_;
  ServerConfig config_;
  common::LoopbackListener listener_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> total_{0};
  std::thread accept_thread_;
  // Lock table — conns_mutex_ guards the connection-thread list (accept
  // thread inserts, reapFinishedLocked() erases, stop() drains). The
  // Conn::done flags inside are atomics written by the session threads
  // themselves; everything else shared across threads is atomic above.
  common::Mutex conns_mutex_;
  std::list<std::unique_ptr<Conn>> conns_ GUARDED_BY(conns_mutex_);
  SessionRegistry registry_;
};

}  // namespace psmgen::serve
