#pragma once
// Minimal dependency-free HTTP/1.1 server for the observability
// endpoints (`/metrics`, `/healthz`, `/readyz`, `/buildinfo`).
//
// Scope is deliberately tiny: loopback-only by default, blocking accept
// loop on one background thread, one connection served at a time,
// `Connection: close` on every response. That is exactly what a
// Prometheus scrape or a k8s probe needs and nothing a real ingress
// would want — this is an exposition surface, not a web framework.
//
// Routes are exact path matches registered before start(); GET and HEAD
// are the only accepted methods (anything else is 405), an unregistered
// path is 404, a garbled request line is 400, and a handler that throws
// turns into 500 — the serving loop never propagates exceptions into the
// serving threads. Handlers run on the server thread, so anything they
// touch (the metrics registry, the session registry) must be
// thread-safe against the serving threads; both are.
//
// listen(0) binds an ephemeral port (reported by port()) — tests and
// `psmgen serve --port 0 --port-file F` use that to avoid collisions.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/socket.hpp"

namespace psmgen::obs {

class HttpServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  /// A parsed request head. Routing matches `path` exactly; the raw
  /// query string (text after '?', if any) rides along for handlers
  /// that take parameters, like `/debug/events?session=N`, and the
  /// header fields for handlers that negotiate, like `/metrics` picking
  /// the OpenMetrics exposition from `Accept`.
  struct Request {
    std::string path;
    std::string query;
    /// Header fields in arrival order, names lowercased (field names
    /// are case-insensitive per RFC 9110), values trimmed of
    /// surrounding whitespace. Bounded by the request-head cap.
    std::vector<std::pair<std::string, std::string>> headers;

    /// Value of the first `name` in the query string: nullopt when
    /// absent, "" for a bare `?name` or an empty `?name=` — the way a
    /// validating route tells an absent parameter (use the default)
    /// from an empty one (`?limit=`, a client error worth a 400).
    /// Supports the `k=v&k2=v2` shape only — no percent-decoding, which
    /// none of the debug routes need.
    std::optional<std::string> findQueryParam(const std::string& name) const;

    /// findQueryParam() with "" for an absent parameter.
    std::string queryParam(const std::string& name) const {
      return findQueryParam(name).value_or("");
    }

    /// First value of header `name` ("" when absent). `name` must be
    /// given in lowercase; lookup is case-insensitive to the wire.
    std::string header(const std::string& name) const;
  };
  using Handler = std::function<Response(const Request& request)>;

  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers an exact-match route. Not thread-safe against a running
  /// server: register everything before start().
  void handle(const std::string& path, Handler handler);

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts listening.
  /// Returns false after an error log when the socket cannot be set up.
  bool listen(std::uint16_t port);

  /// The bound port (resolves listen(0)); 0 before a successful listen().
  std::uint16_t port() const { return listener_.port(); }

  /// Spawns the accept loop on a background thread. listen() must have
  /// succeeded first.
  void start();

  /// Stops accepting, closes the socket and joins the thread. Idempotent;
  /// also run by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Total wall-clock budget for reading one request head (default
  /// 5000 ms). This is a *request* deadline, not a per-recv() timeout: a
  /// slowloris client dripping one byte per poll interval used to reset
  /// the socket timeout forever and wedge the single-threaded accept
  /// loop; now it gets a 408 when the budget runs out. Set before
  /// start(); tests shrink it to keep the suite fast.
  void setRequestDeadlineMs(int ms) {
    request_deadline_ms_.store(ms, std::memory_order_relaxed);
  }

  static const char* reasonPhrase(int status);

 private:
  void acceptLoop();
  void serveConnection(int fd);
  void respond(int fd, const std::string& method, const Response& response);

  // Lock table — none: this class deliberately owns no mutex. routes_
  // follows a publish-then-read protocol (mutated only before start(),
  // read only by the accept thread afterwards — the handle() contract
  // above), and every field shared with the accept thread past start()
  // is an atomic below or the listener's own atomic fd. If routes_ ever
  // becomes mutable while running, it must move behind a common::Mutex
  // with GUARDED_BY.
  std::map<std::string, Handler> routes_;
  common::LoopbackListener listener_;
  std::atomic<bool> running_{false};
  std::atomic<int> request_deadline_ms_{5000};
  std::thread thread_;
};

}  // namespace psmgen::obs
