#pragma once
// Loopback TCP plumbing shared by obs::HttpServer, serve::PredictionServer
// and serve::Client: one listener and one send loop. Each caller keeps
// its own connection loop.

#include <atomic>
#include <cstdint>
#include <string_view>

namespace psmgen::common {

/// Writes all of `data` to `fd`, retrying partial writes and EINTR.
/// MSG_NOSIGNAL: a vanished peer is a false return, never SIGPIPE.
/// Returns false when the peer is gone or the socket's SO_SNDTIMEO
/// expired (a client that stopped reading).
bool sendAll(int fd, std::string_view data);

/// Sets the SO_RCVTIMEO/SO_SNDTIMEO (`option`) of `fd` to `ms`.
void setSocketTimeoutMs(int fd, int option, long ms);

/// A listening TCP socket on 127.0.0.1. The fd lives in one atomic that
/// close() claims with a single exchange, so a racing accept() on
/// another thread wakes with an error and then reads -1, never a
/// closed (possibly reused) descriptor.
class LoopbackListener {
 public:
  LoopbackListener() = default;
  ~LoopbackListener() { close(); }

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and listens. Returns false
  /// with errno set when the socket cannot be set up.
  bool listen(std::uint16_t port, int backlog);

  /// The bound port (resolves port 0); 0 before a successful listen().
  std::uint16_t port() const { return port_; }

  bool listening() const { return fd_.load(std::memory_order_acquire) >= 0; }

  /// Blocks for the next connection and returns its fd; -1 once close()
  /// ran or on any accept error but EINTR, which ends the accept loop.
  int accept();

  /// Shuts the socket down, waking a blocked accept(). Idempotent.
  void close();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace psmgen::common
