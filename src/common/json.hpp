#pragma once
// The JSON encoder every psmgen JSON writer shares: the log lines, the
// metrics/trace/profile/events dumps, the lint report and the /debug
// and /buildinfo bodies. Writers build their documents by hand (the
// schemas are small and fixed); this is where strings and numbers are
// made valid JSON, so one rule holds everywhere.

#include <string>
#include <string_view>

namespace psmgen::common {

/// Appends `s` as a quoted JSON string: `"` `\` newline, carriage
/// return and tab get their short escapes, every other byte below 0x20
/// becomes `\u00XX`, and all other bytes (multi-byte UTF-8 included)
/// pass through unchanged.
void appendJsonString(std::string& out, std::string_view s);

/// Appends `v` printed with "%.9g". NaN and infinities have no JSON
/// spelling, so a non-finite `v` is written as 0.
void appendJsonNumber(std::string& out, double v);

}  // namespace psmgen::common
