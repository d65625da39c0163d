#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/json.hpp"

namespace psmgen::obs {

namespace {

void appendJsonKey(std::string& out, const std::string& name) {
  common::appendJsonString(out, name);
  out += ": ";
}

}  // namespace

void Histogram::record(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  common::MutexLock lock(mutex_);
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (samples_.size() < kMaxSamples) samples_.push_back(v);
}

void Histogram::record(double v, std::uint64_t event_id) {
  record(v, event_id,
         static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count()));
}

void Histogram::record(double v, std::uint64_t event_id, std::uint64_t ts_us) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  record(v);
  if (event_id == 0) return;
  common::MutexLock lock(mutex_);
  if (exemplars_.size() < kMaxExemplars) {
    exemplars_.push_back({v, event_id, ts_us});
    exemplar_next_ = exemplars_.size() % kMaxExemplars;
  } else {
    exemplars_[exemplar_next_] = {v, event_id, ts_us};
    exemplar_next_ = (exemplar_next_ + 1) % kMaxExemplars;
  }
}

std::vector<Exemplar> Histogram::exemplars() const {
  common::MutexLock lock(mutex_);
  std::vector<Exemplar> out;
  out.reserve(exemplars_.size());
  if (exemplars_.size() < kMaxExemplars) {
    out = exemplars_;
  } else {
    for (std::size_t i = 0; i < exemplars_.size(); ++i) {
      out.push_back(exemplars_[(exemplar_next_ + i) % exemplars_.size()]);
    }
  }
  return out;
}

double Histogram::quantileLocked(double q, std::vector<double>& scratch) const {
  if (samples_.empty()) return 0.0;
  scratch = samples_;
  std::sort(scratch.begin(), scratch.end());
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest value with at least ceil(q * n) samples
  // at or below it.
  const std::size_t n = scratch.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return scratch[std::min(rank, n) - 1];
}

double Histogram::quantile(double q) const {
  common::MutexLock lock(mutex_);
  std::vector<double> scratch;
  return quantileLocked(q, scratch);
}

std::vector<std::uint64_t> Histogram::cumulativeBuckets(
    const std::vector<double>& upper_bounds) const {
  common::MutexLock lock(mutex_);
  std::vector<std::uint64_t> out(upper_bounds.size(), 0);
  for (const double v : samples_) {
    for (std::size_t b = 0; b < upper_bounds.size(); ++b) {
      if (v <= upper_bounds[b]) {
        ++out[b];
        break;
      }
    }
  }
  // Prefix-sum the per-bucket tallies into cumulative counts.
  for (std::size_t b = 1; b < out.size(); ++b) out[b] += out[b - 1];
  return out;
}

HistogramSnapshot Histogram::snapshot() const {
  common::MutexLock lock(mutex_);
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.mean = count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  std::vector<double> scratch;
  s.p50 = quantileLocked(0.50, scratch);
  s.p95 = quantileLocked(0.95, scratch);
  return s;
}

Counter& Registry::counter(std::string_view name) {
  common::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  common::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  common::MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(&enabled_)))
             .first;
  }
  return *it->second;
}

void Registry::reset() {
  common::MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    common::MutexLock hlock(h->mutex_);
    h->count_ = 0;
    h->sum_ = 0.0;
    h->min_ = 0.0;
    h->max_ = 0.0;
    h->samples_.clear();
    h->exemplars_.clear();
    h->exemplar_next_ = 0;
  }
}

void Registry::writeJson(std::ostream& os) const {
  common::MutexLock lock(mutex_);
  std::string out;
  out.reserve(1024);
  out += "{\n  \"schema\": \"psmgen.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    appendJsonKey(out, name);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, c->value());
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    appendJsonKey(out, name);
    common::appendJsonNumber(out, g->value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    out += first ? "\n    " : ",\n    ";
    appendJsonKey(out, name);
    out += "{\"count\": ";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%zu", s.count);
    out += buf;
    out += ", \"sum\": ";
    common::appendJsonNumber(out, s.sum);
    out += ", \"min\": ";
    common::appendJsonNumber(out, s.min);
    out += ", \"max\": ";
    common::appendJsonNumber(out, s.max);
    out += ", \"mean\": ";
    common::appendJsonNumber(out, s.mean);
    out += ", \"p50\": ";
    common::appendJsonNumber(out, s.p50);
    out += ", \"p95\": ";
    common::appendJsonNumber(out, s.p95);
    out += '}';
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  os << out;
}

RegistrySnapshot Registry::snapshot(
    const std::vector<double>& histogram_bounds) const {
  common::MutexLock lock(mutex_);
  RegistrySnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    RegistrySnapshot::HistogramEntry e;
    e.name = name;
    e.stats = h->snapshot();
    if (!histogram_bounds.empty()) {
      e.cumulative = h->cumulativeBuckets(histogram_bounds);
    }
    e.exemplars = h->exemplars();
    s.histograms.push_back(std::move(e));
  }
  return s;
}

Registry& metrics() {
  static Registry instance;
  return instance;
}

}  // namespace psmgen::obs
