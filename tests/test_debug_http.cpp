// Raw-socket tests for the /debug introspection routes (serve/debug_http):
// exact status codes (200/400/404/405), HEAD behaviour, bounded response
// sizes, the live-session table reflecting every open session, the
// automatic flight-recorder dump on a malformed frame, and valid
// /buildinfo JSON whatever bytes the model path holds.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/profiler.hpp"
#include "power/gate_estimator.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/client.hpp"
#include "serve/debug_http.hpp"
#include "serve/server.hpp"

namespace psmgen {
namespace {

using common::BitVector;

/// Sends one raw request to 127.0.0.1:`port` and returns the full
/// response (read-until-EOF framing; the server closes every connection).
std::string rawRequest(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& target,
                const std::string& method = "GET") {
  return rawRequest(port, method + " " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n");
}

int statusOf(const std::string& response) {
  if (response.rfind("HTTP/1.1 ", 0) != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string bodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

std::size_t countOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Strict RFC 8259 check: `text` is exactly one JSON value, optionally
/// surrounded by whitespace. Raw control bytes inside a string fail it,
/// exactly as they fail Python's json.loads.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skipSpace();
    if (!value()) return false;
    skipSpace();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return container('}', true);
      case '[': return container(']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool container(char close, bool object) {
    ++i_;
    skipSpace();
    if (eat(close)) return true;
    for (;;) {
      skipSpace();
      if (object) {
        if (!string()) return false;
        skipSpace();
        if (!eat(':')) return false;
        skipSpace();
      }
      if (!value()) return false;
      skipSpace();
      if (eat(close)) return true;
      if (!eat(',')) return false;
    }
  }

  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (i_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(
                                     s_[i_++]))) {
            return false;
          }
        }
      } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
        return false;
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = i_;
    eat('-');
    while (i_ < s_.size() &&
           std::string("0123456789.eE+-").find(s_[i_]) != std::string::npos) {
      ++i_;
    }
    return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }

  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  void skipSpace() {
    while (i_ < s_.size() && std::string(" \t\r\n").find(s_[i_]) !=
                                 std::string::npos) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

bool isValidJson(const std::string& text) { return JsonChecker(text).valid(); }

/// One small RAM characterization shared by the whole suite: just enough
/// model for sessions to stream rows through.
struct ServedModel {
  serialize::PsmModel model;
  std::vector<std::vector<BitVector>> rows;
};

ServedModel buildServedModel() {
  core::CharacterizationFlow flow;
  auto device = ip::makeDevice(ip::IpKind::Ram);
  power::GateLevelEstimator est(*device, ip::powerConfig(ip::IpKind::Ram));
  for (const auto& spec : ip::shortTSPlan(ip::IpKind::Ram)) {
    auto tb =
        ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Short, spec.seed);
    auto pair = est.run(*tb, 1500);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  flow.build();
  std::ostringstream os(std::ios::binary);
  serialize::writePsmModel(os, flow.psm(), flow.domain());
  std::istringstream is(os.str(), std::ios::binary);
  serialize::PsmModel model = serialize::readPsmModel(is);

  auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 0xBEEF);
  const trace::FunctionalTrace eval = est.run(*tb, 600).functional;
  std::vector<std::vector<BitVector>> rows;
  rows.reserve(eval.length());
  for (std::size_t i = 0; i < eval.length(); ++i) {
    rows.push_back(eval.step(i));
  }
  return {std::move(model), std::move(rows)};
}

ServedModel& servedModel() {
  static ServedModel shared = buildServedModel();
  return shared;
}

constexpr char kBuildJson[] = "{\"name\": \"psmgen-test\"}\n";

/// A PredictionServer plus the debug routes on an HTTP server, both on
/// ephemeral loopback ports, with the global flight recorder armed.
class DebugHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::flightRecorder().clear();
    obs::flightRecorder().configure(512);
    obs::flightRecorder().setEnabled(true);

    serve::ServerConfig config;
    config.port = 0;
    config.model_id = "ram";
    prediction_ = std::make_unique<serve::PredictionServer>(
        servedModel().model, config);
    ASSERT_TRUE(prediction_->listen());
    prediction_->start();

    serve::registerDebugRoutes(http_, *prediction_, kBuildJson);
    ASSERT_TRUE(http_.listen(0));
    http_.start();
  }

  void TearDown() override {
    http_.stop();
    prediction_->stop();
    obs::flightRecorder().setEnabled(false);
    obs::flightRecorder().setDumpDir("");
    obs::flightRecorder().clear();
  }

  std::unique_ptr<serve::PredictionServer> prediction_;
  obs::HttpServer http_;
};

TEST_F(DebugHttpTest, DebugBuildServesTheJsonVerbatim) {
  const std::string response = get(http_.port(), "/debug/build");
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), kBuildJson);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
}

TEST_F(DebugHttpTest, SessionsTableReflectsEveryLiveSession) {
  ServedModel& shared = servedModel();
  constexpr int kClients = 3;
  std::vector<serve::Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i].connect(prediction_->port()));
    clients[i].hello("ram");
    clients[i].predict({shared.rows[0], shared.rows[1]});
  }

  const std::string response = get(http_.port(), "/debug/sessions");
  ASSERT_EQ(statusOf(response), 200);
  const std::string body = bodyOf(response);
  EXPECT_NE(body.find("\"psmgen.sessions.v1\""), std::string::npos);
  EXPECT_NE(body.find("\"active\": 3"), std::string::npos) << body;
  EXPECT_NE(body.find("\"truncated\": false"), std::string::npos);
  for (int id = 1; id <= kClients; ++id) {
    EXPECT_NE(body.find("\"id\": " + std::to_string(id)), std::string::npos)
        << "session " << id << " missing from\n" << body;
  }
  EXPECT_EQ(countOccurrences(body, "\"peer\""), 3u);
  EXPECT_NE(body.find("\"state\": \"streaming\""), std::string::npos);
  EXPECT_NE(body.find("\"drift\": \"ok\""), std::string::npos);

  for (auto& client : clients) client.finish();
  // Closed sessions leave the registry; poll briefly for the last thread.
  for (int i = 0; i < 100; ++i) {
    if (prediction_->sessions().size() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::string after = bodyOf(get(http_.port(), "/debug/sessions"));
  EXPECT_NE(after.find("\"active\": 0"), std::string::npos) << after;
  EXPECT_NE(after.find("\"total_opened\": 3"), std::string::npos) << after;
}

TEST_F(DebugHttpTest, EventsRouteServesAllAndFiltersBySession) {
  ServedModel& shared = servedModel();
  serve::Client client;
  ASSERT_TRUE(client.connect(prediction_->port()));
  client.hello("ram");
  client.predict({shared.rows[0], shared.rows[1], shared.rows[2]});
  client.finish();

  const std::string all = get(http_.port(), "/debug/events");
  ASSERT_EQ(statusOf(all), 200);
  EXPECT_NE(bodyOf(all).find("\"psmgen.events.v1\""), std::string::npos);
  EXPECT_NE(bodyOf(all).find("\"kind\": \"hello\""), std::string::npos);
  EXPECT_NE(bodyOf(all).find("\"kind\": \"rows\""), std::string::npos);
  EXPECT_NE(bodyOf(all).find("\"kind\": \"fin\""), std::string::npos);

  // Session 1 finished but its history stays queryable from the rings.
  const std::string one = get(http_.port(), "/debug/events?session=1");
  ASSERT_EQ(statusOf(one), 200);
  EXPECT_GE(countOccurrences(bodyOf(one), "\"session\": 1,"), 3u);
  EXPECT_EQ(countOccurrences(bodyOf(one), "\"session\": 2,"), 0u);
}

TEST_F(DebugHttpTest, EventsRouteValidatesTheSessionParameter) {
  EXPECT_EQ(statusOf(get(http_.port(), "/debug/events?session=999")), 404);
  EXPECT_EQ(statusOf(get(http_.port(), "/debug/events?session=abc")), 400);
  EXPECT_EQ(statusOf(get(http_.port(), "/debug/events?session=0")), 400);
}

TEST_F(DebugHttpTest, MethodsAndHeadAreHandledExactly) {
  EXPECT_EQ(statusOf(get(http_.port(), "/debug/sessions", "POST")), 405);
  EXPECT_EQ(statusOf(get(http_.port(), "/debug/events", "PUT")), 405);
  EXPECT_EQ(statusOf(get(http_.port(), "/debug/nope")), 404);

  const std::string head = get(http_.port(), "/debug/sessions", "HEAD");
  EXPECT_EQ(statusOf(head), 200);
  EXPECT_EQ(bodyOf(head), "") << "HEAD must not carry a body";
  EXPECT_NE(head.find("Content-Length: "), std::string::npos);
}

TEST_F(DebugHttpTest, EventListIsBoundedHoweverMuchHistoryExists) {
  // Fill well past the render cap; the route must clamp to the newest
  // kMaxEventsRendered events and the body must stay bounded.
  for (int i = 0; i < 2000; ++i) {
    obs::FlightEvent event;
    event.session = 1;
    event.kind = static_cast<std::uint16_t>(obs::FlightEventKind::Mark);
    obs::flightRecorder().record(event);
  }
  const std::string response = get(http_.port(), "/debug/events");
  ASSERT_EQ(statusOf(response), 200);
  const std::string body = bodyOf(response);
  EXPECT_LE(countOccurrences(body, "{\"id\": "), serve::kMaxEventsRendered);
  EXPECT_LT(body.size(), 128u * 1024u);
}

TEST_F(DebugHttpTest, MalformedFrameTriggersAFlightDumpWithTheSession) {
  const std::string dir =
      ::testing::TempDir() + "psmgen_debug_http_dumps";
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  obs::flightRecorder().setDumpDir(dir);

  serve::Client client;
  ASSERT_TRUE(client.connect(prediction_->port()));
  client.hello("ram");
  ASSERT_TRUE(client.sendRaw("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF"));
  const serve::Frame frame = client.readFrame();
  ASSERT_EQ(frame.type, serve::FrameType::Error);

  // The session thread writes the dump right after sending the error
  // frame; poll briefly for the file.
  std::string dump_path;
  for (int i = 0; i < 200 && dump_path.empty(); ++i) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("psmgen-flight-protocol_error-", 0) == 0) {
        dump_path = entry.path().string();
      }
    }
    if (dump_path.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_FALSE(dump_path.empty()) << "no protocol_error dump in " << dir;

  std::ifstream in(dump_path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"psmgen.events.v1\""), std::string::npos);
  EXPECT_NE(content.str().find("\"reason\": \"protocol_error\""),
            std::string::npos);
  // The dump is filtered to the offending session and holds its history.
  EXPECT_NE(content.str().find("\"kind\": \"hello\""), std::string::npos);
  EXPECT_NE(content.str().find("\"kind\": \"protocol_error\""),
            std::string::npos);
  EXPECT_GE(countOccurrences(content.str(), "\"session\": 1,"), 2u);
}

TEST_F(DebugHttpTest, LimitParameterCapsEventsAndSessions) {
  for (int i = 0; i < 50; ++i) {
    obs::FlightEvent event;
    event.session = 1;
    event.kind = static_cast<std::uint16_t>(obs::FlightEventKind::Mark);
    obs::flightRecorder().record(event);
  }
  const std::string limited = get(http_.port(), "/debug/events?limit=5");
  ASSERT_EQ(statusOf(limited), 200);
  EXPECT_EQ(countOccurrences(bodyOf(limited), "{\"id\": "), 5u);
  // The cap composes with the session filter.
  const std::string filtered =
      get(http_.port(), "/debug/events?session=1&limit=3");
  ASSERT_EQ(statusOf(filtered), 200);
  EXPECT_EQ(countOccurrences(bodyOf(filtered), "{\"id\": "), 3u);
  // /debug/sessions accepts the same parameter (one live session here,
  // so limit=1 still renders it and limit stays validated).
  serve::Client client;
  ASSERT_TRUE(client.connect(prediction_->port()));
  client.hello("ram");
  const std::string sessions = get(http_.port(), "/debug/sessions?limit=1");
  ASSERT_EQ(statusOf(sessions), 200);
  EXPECT_EQ(countOccurrences(bodyOf(sessions), "{\"id\": "), 1u);
  client.finish();
}

TEST_F(DebugHttpTest, LimitParameterRejectsGarbage) {
  for (const char* target :
       {"/debug/events?limit=0", "/debug/events?limit=257",
        "/debug/events?limit=-3", "/debug/events?limit=abc",
        "/debug/events?limit=5x", "/debug/events?limit=",
        "/debug/sessions?limit=0", "/debug/sessions?limit=banana",
        "/debug/sessions?limit=99999999999999999999"}) {
    const std::string response = get(http_.port(), target);
    EXPECT_EQ(statusOf(response), 400) << target;
    EXPECT_NE(bodyOf(response).find("limit"), std::string::npos) << target;
  }
  // The cap value itself is accepted on both routes.
  EXPECT_EQ(statusOf(get(http_.port(), "/debug/events?limit=256")), 200);
  EXPECT_EQ(statusOf(get(http_.port(), "/debug/sessions?limit=256")), 200);
}

// --------------------------------------------------- /debug/pprof routes

TEST_F(DebugHttpTest, PprofProfileCapturesCollapsedStacksMidLoad) {
  // Keep a session busy so the capture has cycles to attribute.
  ServedModel& shared = servedModel();
  std::atomic<bool> stop{false};
  std::thread load([&] {
    serve::Client client;
    if (!client.connect(prediction_->port())) return;
    client.hello("ram");
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      client.predict({shared.rows[i % shared.rows.size()]});
      ++i;
    }
    client.finish();
  });

  const std::string response =
      get(http_.port(), "/debug/pprof/profile?seconds=1&hz=500");
  stop.store(true);
  load.join();
  ASSERT_EQ(statusOf(response), 200);
  const std::string body = bodyOf(response);
  // Either real collapsed stacks (`frames... count`) or the explicit
  // no-CPU-consumed marker; under load on any real machine, the former.
  EXPECT_FALSE(body.empty());
  if (body.rfind("# no samples", 0) == std::string::npos) {
    EXPECT_NE(body.find(' '), std::string::npos);
    EXPECT_NE(body.find('\n'), std::string::npos);
  }
}

TEST_F(DebugHttpTest, PprofProfileValidatesItsParameters) {
  for (const char* target :
       {"/debug/pprof/profile?seconds=0", "/debug/pprof/profile?seconds=31",
        "/debug/pprof/profile?seconds=abc", "/debug/pprof/profile?seconds=-1",
        "/debug/pprof/profile?hz=0", "/debug/pprof/profile?hz=1001",
        "/debug/pprof/profile?hz=x", "/debug/pprof/profile?seconds=1&hz=nan"}) {
    EXPECT_EQ(statusOf(get(http_.port(), target)), 400) << target;
  }
}

TEST_F(DebugHttpTest, PprofProfileAnswers503WhileACaptureOwnsTheTimer) {
  // A whole-run capture (the CLI's --profile-out path) owns the one
  // SIGPROF timer; the on-demand route must refuse, not hijack it.
  ASSERT_TRUE(obs::profiler().start(obs::ProfilerConfig{}));
  const std::string response =
      get(http_.port(), "/debug/pprof/profile?seconds=1");
  EXPECT_EQ(statusOf(response), 503);
  EXPECT_NE(bodyOf(response).find("busy"), std::string::npos);
  obs::profiler().stop();
}

TEST_F(DebugHttpTest, PprofThreadsListsTheLastCaptureWithLaneNames) {
  // Produce a capture so the inventory is non-empty, spinning the
  // current (main) thread — lane 0 — until at least one tick lands.
  obs::ProfilerConfig config;
  config.hz = 500.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool sampled = false;
  while (!sampled && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(obs::profiler().start(config));
    volatile std::uint64_t sink = 0;
    const auto spin_until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < spin_until) {
      for (int i = 0; i < 4096; ++i) sink = sink + static_cast<unsigned>(i);
    }
    sampled = obs::profiler().stop().samples > 0;
  }
  ASSERT_TRUE(sampled);
  const std::string response = get(http_.port(), "/debug/pprof/threads");
  ASSERT_EQ(statusOf(response), 200);
  const std::string body = bodyOf(response);
  EXPECT_NE(body.find("\"psmgen.profile_threads.v1\""), std::string::npos);
  EXPECT_NE(body.find("\"capturing\": false"), std::string::npos);
  EXPECT_NE(body.find("\"lane_name\": \"main\""), std::string::npos) << body;
}

TEST(DebugHttpBuildInfo, ControlBytesInTheModelPathStayValidJson) {
  const serialize::PsmModel& model = servedModel().model;
  const std::string body =
      serve::buildInfoJson("models/ram\tv2\nfinal \"x\".psm", model);
  EXPECT_TRUE(isValidJson(body)) << body;
  EXPECT_NE(body.find("\"path\": \"models/ram\\tv2\\nfinal \\\"x\\\".psm\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"states\": " + std::to_string(model.psm.stateCount())),
            std::string::npos)
      << body;
  // The checker rejects a raw tab inside a string and accepts its escape.
  EXPECT_FALSE(isValidJson("{\"path\": \"a\tb\"}"));
  EXPECT_TRUE(isValidJson("{\"path\": \"a\\tb\", \"n\": [1, -2.5e3, true]}\n"));
}

}  // namespace
}  // namespace psmgen
