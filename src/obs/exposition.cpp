#include "obs/exposition.hpp"

#include <cinttypes>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "common/strings.hpp"

namespace psmgen::obs {

namespace {

void appendNumber(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void appendCount(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// Escapes a HELP text: backslash and newline (the spec's two HELP
/// escapes; quotes are legal there unescaped).
void appendHelpText(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

/// Pre-rendered `{k="v",...}` block from the const labels; empty string
/// when there are none. Histogram buckets splice their `le` in instead.
std::string renderLabelBlock(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    out += sanitizeMetricName(k);
    out += "=\"";
    out += escapeLabelValue(v);
    out += '"';
    first = false;
  }
  out += '}';
  return out;
}

/// `le` gets appended after the const labels (order inside the block is
/// free in the text format).
std::string renderBucketLabels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& le) {
  std::string out = "{";
  for (const auto& [k, v] : labels) {
    out += sanitizeMetricName(k);
    out += "=\"";
    out += escapeLabelValue(v);
    out += "\",";
  }
  out += "le=\"" + le + "\"}";
  return out;
}

/// The most recent exemplar with value in (`lower`, `upper`]; nullptr
/// when none lands in that bucket. `exemplars` is oldest-first.
const Exemplar* newestExemplarIn(const std::vector<Exemplar>& exemplars,
                                 double lower, double upper) {
  const Exemplar* found = nullptr;
  for (const Exemplar& e : exemplars) {
    if (e.value > lower && e.value <= upper) found = &e;
  }
  return found;
}

/// OpenMetrics exemplar suffix: ` # {event_id="N"} value ts_seconds`;
/// the timestamp is the exemplar's Unix wall-clock stamp in seconds,
/// printed in fixed point — %g's 9 significant digits would round a
/// 2020s epoch to ~10-second granularity.
void appendExemplar(std::string& out, const Exemplar& exemplar) {
  out += " # {event_id=\"";
  appendCount(out, exemplar.event_id);
  out += "\"} ";
  appendNumber(out, exemplar.value);
  char buf[40];
  std::snprintf(buf, sizeof(buf), " %.3f",
                static_cast<double>(exemplar.ts_us) / 1e6);
  out += buf;
}

void appendFamilyHeader(std::string& out, const std::string& name,
                        std::string_view dotted, const char* type) {
  out += "# HELP " + name + " psmgen registry instrument ";
  appendHelpText(out, dotted);
  out += '\n';
  out += "# TYPE " + name + ' ';
  out += type;
  out += '\n';
}

}  // namespace

const std::vector<double>& defaultBuckets() {
  static const std::vector<double> kBuckets = {
      0.5,  1.0,   2.5,   5.0,   10.0,   25.0,   50.0,
      100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
  return kBuckets;
}

std::string sanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string escapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

bool equalsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] + 32 : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? b[i] + 32 : b[i];
    if (ca != cb) return false;
  }
  return true;
}

/// The media range's quality weight: its `q` parameter clamped to
/// [0, 1], defaulting to 1 when absent or unparsable.
double mediaRangeQuality(std::string_view params) {
  double q = 1.0;
  while (!params.empty()) {
    const std::size_t semi = params.find(';');
    std::string_view param = common::trimBlanks(
        params.substr(0, semi == std::string_view::npos ? params.size()
                                                        : semi));
    params = semi == std::string_view::npos ? std::string_view{}
                                            : params.substr(semi + 1);
    if (param.size() < 2) continue;
    if ((param[0] != 'q' && param[0] != 'Q') || param[1] != '=') continue;
    const std::string value(param.substr(2));
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    q = parsed < 0.0 ? 0.0 : (parsed > 1.0 ? 1.0 : parsed);
  }
  return q;
}

}  // namespace

bool acceptsOpenMetrics(std::string_view accept_header) {
  // Highest q among ranges naming OpenMetrics *exactly* vs. highest q
  // among ranges the classic 0.0.4 format satisfies. Wildcards count
  // only on the classic side: a client saying `*/*` is happy with
  // either, and classic is the safer default for generic scrapers.
  double openmetrics_q = -1.0;
  double classic_q = -1.0;
  std::string_view rest = accept_header;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view entry = rest.substr(
        0, comma == std::string_view::npos ? rest.size() : comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t semi = entry.find(';');
    const std::string_view type = common::trimBlanks(
        entry.substr(0, semi == std::string_view::npos ? entry.size()
                                                       : semi));
    const std::string_view params =
        semi == std::string_view::npos ? std::string_view{}
                                       : entry.substr(semi + 1);
    if (type.empty()) continue;
    const double q = mediaRangeQuality(params);
    if (equalsIgnoreCase(type, "application/openmetrics-text")) {
      if (q > openmetrics_q) openmetrics_q = q;
    } else if (equalsIgnoreCase(type, "text/plain") ||
               equalsIgnoreCase(type, "text/*") ||
               equalsIgnoreCase(type, "*/*") ||
               equalsIgnoreCase(type, "application/*")) {
      if (q > classic_q) classic_q = q;
    }
  }
  // OpenMetrics only when the client named it, with q > 0, at least as
  // preferred as any range classic text satisfies.
  return openmetrics_q > 0.0 && openmetrics_q >= classic_q;
}

void writePrometheus(std::ostream& os, const Registry& registry,
                     const PrometheusOptions& options) {
  const std::vector<double>& bounds =
      options.buckets.empty() ? defaultBuckets() : options.buckets;
  const RegistrySnapshot snap = registry.snapshot(bounds);
  const std::string labels = renderLabelBlock(options.const_labels);
  // Exemplar syntax exists only in OpenMetrics; a 0.0.4 scrape must
  // never contain it or the whole scrape fails to parse.
  const bool exemplars = options.openmetrics && options.exemplars;

  std::string out;
  out.reserve(4096);
  for (const auto& [dotted, value] : snap.counters) {
    const std::string family = options.prefix + sanitizeMetricName(dotted);
    const std::string name = family + "_total";
    // OpenMetrics names the counter *family* without the `_total`
    // suffix and derives the sample name from it; 0.0.4 declares the
    // suffixed sample name directly.
    appendFamilyHeader(out, options.openmetrics ? family : name, dotted,
                       "counter");
    out += name + labels + ' ';
    appendCount(out, value);
    out += '\n';
  }
  for (const auto& [dotted, value] : snap.gauges) {
    const std::string name = options.prefix + sanitizeMetricName(dotted);
    appendFamilyHeader(out, name, dotted, "gauge");
    out += name + labels + ' ';
    appendNumber(out, value);
    out += '\n';
  }
  for (const auto& h : snap.histograms) {
    const std::string name = options.prefix + sanitizeMetricName(h.name);
    appendFamilyHeader(out, name, h.name, "histogram");
    double lower = -std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < bounds.size(); ++b) {
      std::string le;
      appendNumber(le, bounds[b]);
      out += name + "_bucket" + renderBucketLabels(options.const_labels, le) +
             ' ';
      appendCount(out, h.cumulative[b]);
      if (exemplars) {
        const Exemplar* e = newestExemplarIn(h.exemplars, lower, bounds[b]);
        if (e != nullptr) appendExemplar(out, *e);
      }
      out += '\n';
      lower = bounds[b];
    }
    out += name + "_bucket" + renderBucketLabels(options.const_labels, "+Inf") +
           ' ';
    appendCount(out, h.stats.count);
    if (exemplars) {
      const Exemplar* e = newestExemplarIn(
          h.exemplars, lower, std::numeric_limits<double>::infinity());
      if (e != nullptr) appendExemplar(out, *e);
    }
    out += '\n';
    out += name + "_sum" + labels + ' ';
    appendNumber(out, h.stats.sum);
    out += '\n';
    out += name + "_count" + labels + ' ';
    appendCount(out, h.stats.count);
    out += '\n';
  }
  if (options.openmetrics) out += "# EOF\n";
  os << out;
}

std::string renderPrometheus(const Registry& registry,
                             const PrometheusOptions& options) {
  std::ostringstream os;
  writePrometheus(os, registry, options);
  return os.str();
}

}  // namespace psmgen::obs
