// Minimal JSON text helpers for the benchmark's outputs.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

namespace perfbench::json {

inline std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `v`. JSON has no NaN or
/// infinity, so a non-finite value is a bug in the caller.
inline std::string number(double v) {
  if (!std::isfinite(v)) throw std::domain_error("non-finite metric value");
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, result.ptr};
}

}  // namespace perfbench::json
