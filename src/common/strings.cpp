#include "common/strings.hpp"

#include <string.h>  // strerror_r: POSIX, not in <cstring>'s std::

#include <charconv>
#include <cstdio>

namespace psmgen::common {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

namespace {
/// std::isspace in the "C" locale, which psmgen never leaves, without the
/// library call: trim runs on every CSV row.
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
}  // namespace

std::string_view trim(std::string_view s) {
  while (!s.empty() && isSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && isSpace(s.back())) s.remove_suffix(1);
  return s;
}

std::string_view trimBlanks(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string formatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string padLeft(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string padRight(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

namespace {

/// std::from_chars over all of `text`: locale-free, no whitespace or
/// '+' accepted, and the parse must consume every character.
template <typename T>
std::optional<T> parseWhole(std::string_view text, T min, T max) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= min && value <= max)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<long long> parseInteger(std::string_view text, long long min,
                                      long long max) {
  return parseWhole(text, min, max);
}

std::optional<double> parseReal(std::string_view text, double min,
                                double max) {
  return parseWhole(text, min, max);
}

namespace {

// glibc with _GNU_SOURCE ships the char*-returning strerror_r; POSIX
// ships the int-returning one. Overload resolution picks the adapter
// matching the libc actually in use, so the same code compiles against
// either ABI (if constexpr would type-check both branches here).
[[maybe_unused]] const char* strerrorResult(char* result,
                                            const char* /*buf*/) {
  return result;
}
[[maybe_unused]] const char* strerrorResult(int result, const char* buf) {
  return result == 0 ? buf : nullptr;
}

}  // namespace

std::string errnoMessage(int errnum) {
  char buf[256];
  buf[0] = '\0';
  const char* msg = strerrorResult(strerror_r(errnum, buf, sizeof(buf)), buf);
  if (msg == nullptr || *msg == '\0') {
    std::snprintf(buf, sizeof(buf), "errno %d", errnum);
    return buf;
  }
  return msg;
}

}  // namespace psmgen::common
