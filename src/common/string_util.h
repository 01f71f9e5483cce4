// Small string helpers shared across modules.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace gly {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses an unsigned 64-bit integer; fails on trailing garbage.
Result<uint64_t> ParseUint64(std::string_view s);

/// Parses a double; fails on trailing garbage.
Result<double> ParseDouble(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Lowercases ASCII.
std::string ToLower(std::string_view s);

/// Formats bytes with binary units ("1.5 GiB").
std::string FormatBytes(uint64_t bytes);

/// Formats a duration in seconds with an adaptive unit ("3.2 ms", "12.4 s").
std::string FormatSeconds(double seconds);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters; no surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace gly
