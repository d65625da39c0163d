#include "obs/http_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "common/strings.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace psmgen::obs {

namespace {

/// Hard cap on the request head we are willing to buffer; a scrape
/// request is a few hundred bytes, anything larger is abuse.
constexpr std::size_t kMaxRequestBytes = 8192;

std::string toLowerAscii(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

/// Parses the `Name: value` lines between the request line and the
/// blank line into `headers`. Malformed lines (no colon) are skipped —
/// the debug surface has no reason to reject a whole request over one.
void parseHeaderFields(
    const std::string& head, std::size_t begin,
    std::vector<std::pair<std::string, std::string>>& headers) {
  while (begin < head.size()) {
    const std::size_t line_end = head.find("\r\n", begin);
    if (line_end == std::string::npos || line_end == begin) break;
    const std::size_t colon = head.find(':', begin);
    if (colon != std::string::npos && colon < line_end) {
      const std::string_view view(head);
      headers.emplace_back(
          toLowerAscii(std::string(
              common::trimBlanks(view.substr(begin, colon - begin)))),
          common::trimBlanks(view.substr(colon + 1, line_end - colon - 1)));
    }
    begin = line_end + 2;
  }
}

}  // namespace

std::string HttpServer::Request::header(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return "";
}

std::optional<std::string> HttpServer::Request::findQueryParam(
    const std::string& name) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    std::size_t eq = query.find('=', pos);
    if (eq == std::string::npos || eq > amp) eq = amp;
    if (eq > pos && query.compare(pos, eq - pos, name) == 0) {
      return eq < amp ? query.substr(eq + 1, amp - eq - 1) : "";
    }
    pos = amp + 1;
  }
  return std::nullopt;
}

const char* HttpServer::reasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(const std::string& path, Handler handler) {
  routes_[path] = std::move(handler);
}

bool HttpServer::listen(std::uint16_t port) {
  if (!listener_.listen(port, /*backlog=*/16)) {
    error("http.bind_failed",
          {{"port", port}, {"errno", common::errnoMessage(errno)}});
    return false;
  }
  return true;
}

void HttpServer::start() {
  if (!listener_.listening() || running()) return;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { acceptLoop(); });
  info("http.serving", {{"port", port()}});
}

void HttpServer::stop() {
  const bool was_running = running_.exchange(false, std::memory_order_relaxed);
  listener_.close();  // wakes the accept loop
  if (was_running && thread_.joinable()) thread_.join();
}

void HttpServer::acceptLoop() {
  while (running()) {
    const int fd = listener_.accept();
    if (fd < 0) break;  // stop() closed the listener
    serveConnection(fd);
    ::close(fd);
  }
}

void HttpServer::serveConnection(int fd) {
  // A slow or dead client must not wedge the accept loop forever. The
  // per-recv socket timeout alone is not enough: a slowloris dripping a
  // byte every few seconds resets it indefinitely, so the whole request
  // head is additionally under one wall-clock deadline.
  const int deadline_ms = request_deadline_ms_.load(std::memory_order_relaxed);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  common::setSocketTimeoutMs(fd, SO_SNDTIMEO, 5000);

  std::string head;
  bool timed_out = false;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.size() < kMaxRequestBytes) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      timed_out = true;
      break;
    }
    common::setSocketTimeoutMs(fd, SO_RCVTIMEO, remaining.count());
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        timed_out = true;  // socket timeout fired; the deadline is spent
        break;
      }
      if (head.empty()) return;  // client connected and went away
      break;
    }
    head.append(buf, static_cast<std::size_t>(n));
  }

  metrics().counter("http.requests").add(1);
  Response response;
  std::string method;
  std::string path;
  if (timed_out && head.find("\r\n\r\n") == std::string::npos) {
    metrics().counter("http.request_timeouts").add(1);
    warn("http.request_timeout",
         {{"bytes_read", head.size()}, {"deadline_ms", deadline_ms}});
    response = {408, "text/plain; charset=utf-8", "request timeout\n"};
    respond(fd, "", response);
    return;
  }
  if (head.size() >= kMaxRequestBytes &&
      head.find("\r\n\r\n") == std::string::npos) {
    metrics().counter("http.oversized_requests").add(1);
    warn("http.oversized_request", {{"bytes_read", head.size()}});
    response = {431, "text/plain; charset=utf-8",
                "request header too large\n"};
    respond(fd, "", response);
    return;
  }
  const std::size_t line_end = head.find("\r\n");
  const std::size_t sp1 = head.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : head.find(' ', sp1 + 1);
  if (line_end == std::string::npos || sp1 == std::string::npos ||
      sp2 == std::string::npos || sp2 > line_end) {
    response = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else {
    method = head.substr(0, sp1);
    Request request;
    request.path = head.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t query = request.path.find('?');
    if (query != std::string::npos) {
      request.query = request.path.substr(query + 1);
      request.path.resize(query);
    }
    parseHeaderFields(head, line_end + 2, request.headers);
    path = request.path;
    if (method != "GET" && method != "HEAD") {
      response = {405, "text/plain; charset=utf-8", "method not allowed\n"};
    } else {
      const auto it = routes_.find(request.path);
      if (it == routes_.end()) {
        response = {404, "text/plain; charset=utf-8", "not found\n"};
      } else {
        try {
          response = it->second(request);
        } catch (const std::exception& e) {
          error("http.handler_failed", {{"path", path}, {"what", e.what()}});
          response = {500, "text/plain; charset=utf-8",
                      "internal server error\n"};
        }
      }
    }
  }
  debug("http.request",
        {{"method", method}, {"path", path}, {"status", response.status}});
  respond(fd, method, response);
}

void HttpServer::respond(int fd, const std::string& method,
                         const Response& response) {
  if (response.status != 200) metrics().counter("http.errors").add(1);
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + ' ' +
                    reasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (response.status == 405) out += "Allow: GET, HEAD\r\n";
  out += "Connection: close\r\n\r\n";
  if (method != "HEAD") out += response.body;
  common::sendAll(fd, out);
}

}  // namespace psmgen::obs
