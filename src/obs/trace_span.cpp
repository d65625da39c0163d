#include "obs/trace_span.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>

#include "common/json.hpp"
#include "common/thread_pool.hpp"

namespace psmgen::obs {

namespace {

void appendUs(std::string& out, double us) {
  if (!std::isfinite(us) || us < 0.0) us = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  out += buf;
}

}  // namespace

std::string laneName(int lane) {
  if (lane >= kServeLaneBase) {
    return "serve-session-" + std::to_string(lane - kServeLaneBase);
  }
  if (lane > 0) return "pool-worker-" + std::to_string(lane);
  return "main";
}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(std::string_view name, std::string_view category,
                    double ts_us, double dur_us, int lane) {
  if (!enabled()) return;
  common::MutexLock lock(mutex_);
  events_.push_back(
      {std::string(name), std::string(category), ts_us, dur_us, lane});
}

std::size_t Tracer::eventCount() const {
  common::MutexLock lock(mutex_);
  return events_.size();
}

void Tracer::clear() {
  common::MutexLock lock(mutex_);
  events_.clear();
}

void Tracer::writeJson(std::ostream& os) const {
  common::MutexLock lock(mutex_);
  std::string out;
  out.reserve(256 + events_.size() * 96);
  out += "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";

  // One thread_name metadata record per lane, so viewers label rows.
  std::set<int> lanes;
  for (const Event& e : events_) lanes.insert(e.lane);
  bool first = true;
  for (const int lane : lanes) {
    out += first ? "\n" : ",\n";
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ";
    out += std::to_string(lane);
    out += ", \"args\": {\"name\": \"";
    out += laneName(lane);
    out += "\"}}";
    first = false;
  }

  for (const Event& e : events_) {
    out += first ? "\n" : ",\n";
    out += "{\"name\": ";
    common::appendJsonString(out, e.name);
    out += ", \"cat\": ";
    common::appendJsonString(out, e.category);
    out += ", \"ph\": \"X\", \"ts\": ";
    appendUs(out, e.ts_us);
    out += ", \"dur\": ";
    appendUs(out, e.dur_us);
    out += ", \"pid\": 1, \"tid\": ";
    out += std::to_string(e.lane);
    out += '}';
    first = false;
  }
  out += "\n]}\n";
  os << out;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

namespace {
thread_local int t_lane_override = 0;
}  // namespace

int currentLane() {
  if (t_lane_override != 0) return t_lane_override;
  const int worker = common::ThreadPool::currentWorkerId();
  return worker < 0 ? 0 : worker;
}

void setThreadLane(int lane) { t_lane_override = lane; }

Span::Span(std::string_view name, std::string_view category) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  armed_ = true;
  name_ = name;
  category_ = category;
  t0_us_ = t.nowUs();
}

Span::~Span() {
  if (!armed_) return;
  Tracer& t = tracer();
  const double now = t.nowUs();
  t.record(name_, category_, t0_us_, now - t0_us_, currentLane());
}

}  // namespace psmgen::obs
