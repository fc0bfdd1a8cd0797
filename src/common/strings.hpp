// Small string utilities shared by the parsers and report printers.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace rw {

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on arbitrary whitespace runs; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// True if `s` starts with the given prefix.
bool starts_with(std::string_view s, std::string_view prefix);

/// Join pieces with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Append what std::to_chars(v, args...) writes: one number, no printf
/// and no temporary string. With a chars_format and a precision the bytes
/// are, by the standard, exactly printf's "%.*g" / "%.*f" in the C locale.
/// The buffer fits any integer, and any double in fixed notation with up
/// to 20 decimals.
template <typename T, typename... Args>
void append_chars(std::string& out, T v, Args... args) {
  char buf[std::numeric_limits<double>::max_exponent10 + 32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, args...);
  out.append(buf, r.ptr);
}

/// Parse a non-negative integer; returns false on any non-digit content.
bool parse_u64(std::string_view s, std::uint64_t& out);

/// Parse a double; returns false on trailing garbage.
bool parse_double(std::string_view s, double& out);

}  // namespace rw
