#include "obs/log.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <iostream>

#include "common/json.hpp"

namespace psmgen::obs {

namespace {

/// UTC wall-clock timestamp with millisecond resolution.
void appendTimestamp(std::string& out) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Sized for seven full-width ints, so no field value can truncate.
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  out += buf;
}

}  // namespace

const char* logLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "trace";
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

std::optional<LogLevel> parseLogLevel(std::string_view text) {
  if (text == "trace") return LogLevel::Trace;
  if (text == "debug") return LogLevel::Debug;
  if (text == "info") return LogLevel::Info;
  if (text == "warn") return LogLevel::Warn;
  if (text == "error") return LogLevel::Error;
  if (text == "off") return LogLevel::Off;
  return std::nullopt;
}

void LogValue::append(std::string& out, bool json) const {
  char buf[32];
  switch (kind_) {
    case Kind::String:
      common::appendJsonString(out, str_);
      return;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::Int:
      std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
      out += buf;
      return;
    case Kind::Uint:
      std::snprintf(buf, sizeof(buf), "%" PRIu64, uint_);
      out += buf;
      return;
    case Kind::Double:
      common::appendJsonNumber(out, double_);
      return;
  }
  (void)json;
}

void Logger::setSink(std::ostream* os) {
  common::MutexLock lock(mutex_);
  sink_ = os;
}

void Logger::log(LogLevel level, std::string_view event,
                 std::initializer_list<LogField> fields) {
  if (!enabled(level)) return;
  std::string line;
  line.reserve(96);
  if (format() == Format::Json) {
    line += "{\"ts\":\"";
    appendTimestamp(line);
    line += "\",\"level\":\"";
    line += logLevelName(level);
    line += "\",\"event\":";
    common::appendJsonString(line, event);
    for (const LogField& f : fields) {
      line += ',';
      common::appendJsonString(line, f.key);
      line += ':';
      f.value.append(line, /*json=*/true);
    }
    line += '}';
  } else {
    line += "ts=";
    appendTimestamp(line);
    line += " level=";
    line += logLevelName(level);
    line += " event=";
    line += event;
    for (const LogField& f : fields) {
      line += ' ';
      line += f.key;
      line += '=';
      f.value.append(line, /*json=*/false);
    }
  }
  line += '\n';
  common::MutexLock lock(mutex_);
  std::ostream& os = sink_ != nullptr ? *sink_ : std::cerr;
  os << line;
  os.flush();
}

Logger& logger() {
  static Logger instance;
  return instance;
}

RateLimiter::RateLimiter(double tokens_per_second, double burst)
    : rate_(tokens_per_second), burst_(burst), tokens_(burst) {}

RateLimiter::Decision RateLimiter::tick() {
  return tickAt(std::chrono::duration<double>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
}

RateLimiter::Decision RateLimiter::tickAt(double now_seconds) {
  common::MutexLock lock(mutex_);
  if (primed_) {
    const double elapsed = now_seconds - last_;
    if (elapsed > 0.0) {
      tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
    }
  }
  primed_ = true;
  last_ = now_seconds;
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    Decision d{true, suppressed_};
    suppressed_ = 0;
    return d;
  }
  ++suppressed_;
  return {false, 0};
}

}  // namespace psmgen::obs
