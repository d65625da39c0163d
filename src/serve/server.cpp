#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace psmgen::serve {

namespace {

/// Receive poll granularity: the connection loop wakes this often to
/// notice drain and to advance the idle clock, whatever the client does.
constexpr int kRecvPollMs = 100;

/// "ip:port" of the accepted peer; "unknown" when getpeername fails.
std::string peerName(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return "unknown";
  }
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

PredictionServer::PredictionServer(const serialize::PsmModel& model,
                                   ServerConfig config)
    : model_(model), config_(std::move(config)) {}

PredictionServer::~PredictionServer() { stop(); }

bool PredictionServer::listen() {
  if (!listener_.listen(config_.port, config_.backlog)) {
    obs::error("serve.bind_failed",
               {{"port", config_.port}, {"errno", common::errnoMessage(errno)}});
    return false;
  }
  return true;
}

void PredictionServer::start() {
  if (!listener_.listening() || running()) return;
  running_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { acceptLoop(); });
  obs::info("serve.listening",
            {{"port", port()},
             {"max_sessions", config_.max_sessions},
             {"rows_per_second", config_.rows_per_second}});
}

void PredictionServer::beginDrain() {
  if (draining_.exchange(true, std::memory_order_relaxed)) return;
  obs::metrics().gauge("serve.draining").set(1.0);
  obs::info("serve.draining",
            {{"active_sessions", active_.load(std::memory_order_relaxed)}});
  // Closing the listener both refuses new connects at the kernel and
  // unblocks the accept loop; live sessions notice the flag at their
  // next recv poll, after answering the frames already consumed.
  listener_.close();
}

void PredictionServer::stop() {
  const bool was_running = running_.exchange(false, std::memory_order_relaxed);
  beginDrain();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    common::MutexLock lock(conns_mutex_);
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    conns_.clear();
  }
  if (was_running) {
    obs::info("serve.stopped",
              {{"sessions_total", total_.load(std::memory_order_relaxed)}});
  }
}

void PredictionServer::reapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void PredictionServer::acceptLoop() {
  while (running()) {
    const int fd = listener_.accept();
    if (fd < 0) break;  // drain/stop closed the listener
    common::setSocketTimeoutMs(fd, SO_SNDTIMEO, config_.io_timeout_ms);
    if (active_.load(std::memory_order_relaxed) >= config_.max_sessions) {
      obs::metrics().counter("serve.sessions_rejected").add(1);
      common::sendAll(
          fd, encodeError({ErrorCode::Busy,
                           "session cap of " +
                               std::to_string(config_.max_sessions) +
                               " reached"}));
      ::close(fd);
      continue;
    }
    total_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t now_active =
        active_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::metrics().counter("serve.sessions_total").add(1);
    obs::metrics()
        .gauge("serve.sessions_active")
        .set(static_cast<double>(now_active));
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    std::string peer = peerName(fd);
    conn->thread = std::thread([this, fd, raw, peer = std::move(peer)] {
      runConnection(fd, peer);
      raw->done.store(true, std::memory_order_release);
    });
    common::MutexLock lock(conns_mutex_);
    conns_.push_back(std::move(conn));
    reapFinishedLocked();
  }
}

void PredictionServer::runConnection(int fd, std::string peer) {
  common::setSocketTimeoutMs(fd, SO_RCVTIMEO, kRecvPollMs);
  Session::Config scfg;
  scfg.model_id = config_.model_id;
  scfg.max_frame_payload = config_.max_frame_payload;
  scfg.rows_per_second = config_.rows_per_second;
  scfg.quality = config_.quality;
  Session session(model_, scfg);

  // Register in the live-session registry and bind the observability
  // layer to this thread: every flight event recorded below (including
  // from QualityMonitor, which knows nothing about sessions) carries the
  // session id, every trace span lands in this session's own lane, and
  // log lines from the session carry the id field.
  std::shared_ptr<SessionRecord> record = registry_.open(std::move(peer));
  const std::uint64_t session_id = record->id;
  session.bindRecord(record);
  obs::FlightRecorder::setThreadSession(session_id);
  obs::setThreadLane(obs::kServeLaneBase + static_cast<int>(session_id));
  obs::FlightEvent open_event;
  open_event.kind =
      static_cast<std::uint16_t>(obs::FlightEventKind::SessionOpen);
  recordSessionEvent(open_event, record.get());
  obs::debug("serve.session_open", {{"session", session_id},
                                    {"peer", record->peer}});

  std::string out;
  char buf[16384];
  int idle_ms = 0;
  for (;;) {
    if (draining()) {
      out.clear();
      session.abort(ErrorCode::Draining, "server is draining", out);
      common::sendAll(fd, out);  // best effort; we are closing either way
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      idle_ms = 0;
      out.clear();
      const bool alive = session.consume(buf, static_cast<std::size_t>(n), out);
      // Flush-before-read is the backpressure: while this send blocks on
      // a slow client we consume nothing more from the socket.
      if (!out.empty() && !common::sendAll(fd, out)) {
        obs::metrics().counter("serve.slow_client_drops").add(1);
        break;
      }
      if (!alive) break;
    } else if (n == 0) {
      break;  // peer closed without Fin; counters die with the session
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      idle_ms += kRecvPollMs;
      if (idle_ms >= config_.idle_timeout_ms) {
        out.clear();
        session.abort(ErrorCode::IdleTimeout,
                      "no data for " + std::to_string(idle_ms) + " ms", out);
        common::sendAll(fd, out);
        break;
      }
    } else {
      break;
    }
  }
  ::close(fd);
  obs::FlightEvent close_event;
  close_event.row = session.rows();
  close_event.detail = static_cast<std::uint32_t>(session.rows());
  close_event.kind =
      static_cast<std::uint16_t>(obs::FlightEventKind::SessionClose);
  recordSessionEvent(close_event, nullptr);
  registry_.close(session_id);
  obs::FlightRecorder::setThreadSession(0);
  obs::setThreadLane(0);
  const std::size_t now_active =
      active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  obs::metrics()
      .gauge("serve.sessions_active")
      .set(static_cast<double>(now_active));
  obs::debug("serve.session_closed",
             {{"session", session_id},
              {"rows", session.rows()},
              {"state", static_cast<int>(session.state())}});
}

}  // namespace psmgen::serve
