#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// One epoch for every tracer of the process, so merged records share a
/// time axis.
double now() {
  static const Clock::time_point epoch = Clock::now();
  return secondsSince(epoch);
}

}  // namespace

int Tracer::begin(const std::string& name, int parent, std::uint32_t job) {
  Span span;
  span.name = name;
  span.start = now();
  span.parent = parent;
  span.job = job;
  span.calls = 1;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end = now();
  span.duration = span.end - span.start;
}

int Tracer::rollup(const std::string& name, int parent, std::uint32_t job) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.job = job;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::add(int id, double seconds, std::uint64_t calls) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end = now();
  if (span.calls == 0) span.start = span.end - seconds;
  span.duration += seconds;
  span.calls += calls;
}

void Tracer::merge(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_time[static_cast<std::size_t>(span.parent)] += span.duration;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    t.seconds += spans_[i].duration;
    t.self += spans_[i].duration - child_time[i];
    t.calls += spans_[i].calls;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  os << "id\tname\tstart_s\tend_s\tduration_s\tcalls\tparent\tjob\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
       << s.duration << '\t' << s.calls << '\t' << s.parent << '\t' << s.job
       << '\n';
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
