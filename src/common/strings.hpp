#pragma once
// Small string helpers shared by trace I/O, reporting, and code generation.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace psmgen::common {

/// Splits `s` on `delim`; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strips leading/trailing ASCII whitespace (std::isspace in the "C"
/// locale: space, \t, \n, \v, \f, \r); the result views `s`, so `s`
/// must outlive it.
std::string_view trim(std::string_view s);

/// Strips leading/trailing spaces and tabs only (HTTP's optional
/// whitespace around header values and parameters).
std::string_view trimBlanks(std::string_view s);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` starts with `prefix`.
bool startsWith(const std::string& s, const std::string& prefix);

/// Fixed-precision decimal rendering (printf "%.*f").
std::string formatDouble(double v, int precision);

/// Left-pads with spaces to at least `width` characters.
std::string padLeft(const std::string& s, std::size_t width);
/// Right-pads with spaces to at least `width` characters.
std::string padRight(const std::string& s, std::size_t width);

/// Parses all of `text` as a base-10 integer in [min, max]. Empty
/// input, whitespace, a leading '+', trailing characters and values
/// outside the range (overflow included) all give nullopt.
std::optional<long long> parseInteger(std::string_view text, long long min,
                                      long long max);

/// Parses all of `text` as a decimal real in [min, max]; the same
/// rejections as parseInteger(), and NaN is never in range.
std::optional<double> parseReal(std::string_view text, double min,
                                double max);

/// Thread-safe strerror: the message for `errnum` via strerror_r into
/// a local buffer. std::strerror returns a pointer into static storage
/// that a concurrent call may rewrite mid-read (clang-tidy
/// concurrency-mt-unsafe), and psmgen reports socket errors from the
/// accept, session and scrape threads at once — use this everywhere.
std::string errnoMessage(int errnum);

}  // namespace psmgen::common
