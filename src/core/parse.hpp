// Strict whole-token numeric parsing shared by every user-facing text
// surface (san_tool flags, serve workload files). Unlike atof/atol, a
// malformed token is an error, not a silent zero: the entire token must
// convert, leading whitespace is rejected, and NaN is rejected for doubles
// (a NaN snapshot time would poison hash-keyed caches — NaN != NaN).
// The matching renderers write numbers for the same surfaces (workload
// lines, result lines, genload traces).
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace san::core {

/// Parse `text` as a double. Returns false on nullptr, empty, partial
/// consumption, range error, leading whitespace, or NaN (infinities are
/// allowed: "+inf" is a meaningful snapshot time).
inline bool parse_double_strict(const char* text, double& out) {
  if (text == nullptr || *text == '\0' ||
      std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  out = std::strtod(text, &end);
  return *end == '\0' && errno == 0 && !std::isnan(out);
}

/// Parse `text` as an unsigned 64-bit integer (base 10). Returns false on
/// any malformed input, including a leading '-' (strtoull would silently
/// wrap it).
inline bool parse_u64_strict(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0' || *text == '-' ||
      std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return *end == '\0' && errno == 0;
}

/// Parse `text` as one of `names[0..count)`, whole-token exact match only
/// (no prefixes, no case folding). Returns false on nullptr, empty, or an
/// unknown token; on success `out` is the matched index. Shared by the
/// enum-valued knobs (SAN_SIMD) so they fail loudly like the numeric ones.
inline bool parse_enum_strict(const char* text, const char* const* names,
                              std::size_t count, std::size_t& out) {
  if (text == nullptr || *text == '\0') return false;
  for (std::size_t i = 0; i < count; ++i) {
    if (std::strcmp(text, names[i]) == 0) {
      out = i;
      return true;
    }
  }
  return false;
}

/// Append `value` as printf("%.17g") prints it: std::to_chars with a
/// precision is defined to match, without the format-string parse and
/// locale lookups. 17 significant digits round-trip every double.
inline void append_double(std::string& out, double value) {
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value,
                                 std::chars_format::general, 17)
                       .ptr;
  out.append(buffer, end);
}

/// Append `value` in decimal.
inline void append_u64(std::string& out, std::uint64_t value) {
  char buffer[20];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  out.append(buffer, end);
}

}  // namespace san::core
