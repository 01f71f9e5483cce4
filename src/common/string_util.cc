#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace gly {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<uint64_t> ParseUint64(std::string_view s) {
  s = Trim(s);
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("cannot parse uint64: '" + std::string(s) +
                                   "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("cannot parse double: ''");
  // std::from_chars for double is not universally available; use strtod on a
  // NUL-terminated copy.
  std::string buf(s);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("cannot parse double: '" + buf + "'");
  }
  return value;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string FormatBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  size_t u = 0;
  while (v >= 1024.0 && u + 1 < sizeof(kUnits) / sizeof(kUnits[0])) {
    v /= 1024.0;
    ++u;
  }
  return StringPrintf("%.1f %s", v, kUnits[u]);
}

std::string FormatSeconds(double seconds) {
  if (seconds < 1e-3) return StringPrintf("%.1f us", seconds * 1e6);
  if (seconds < 1.0) return StringPrintf("%.1f ms", seconds * 1e3);
  if (seconds < 120.0) return StringPrintf("%.2f s", seconds);
  return StringPrintf("%.1f min", seconds / 60.0);
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace gly
