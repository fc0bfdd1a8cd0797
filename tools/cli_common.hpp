// Shared command-line machinery for the rw tool CLIs (rwlint, rwprof,
// rwfault, rwert, rwcritpath, rwfuzz).
//
// Every CLI parses the common surface through parse_common_flag(), writes
// its files through write_text() and wraps its machine output in one
// envelope (schema "rw-tool-1") whose header names the tool and the seed,
// so downstream tooling can dispatch on a single document shape. Each
// tool's own document travels inside the envelope as `payload`.
#pragma once

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/units.hpp"

namespace rw::cli {

/// Flags every tool understands. Tool-specific option structs inherit
/// from this so the field names stay what the drivers always used.
struct CommonOptions {
  bool list = false;         // --list: print the registry and exit
  bool json_stdout = false;  // --json: rw-tool-1 envelope on stdout
  bool write_files = true;   // cleared by --no-files
  std::uint64_t seed = 1;    // --seed S
  std::string out_dir = ".";  // --out-dir DIR (also --out=DIR)
};

/// Numeric value following flag `args[i]`; advances `i` past it. A value
/// above `max` is an error, never a silent wrap.
inline Result<std::uint64_t> arg_u64(
    const std::vector<std::string>& args, std::size_t& i,
    const std::string& flag,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (i + 1 >= args.size()) return make_error(flag + " requires a value");
  const std::string& v = args[++i];
  if (v.empty()) return make_error(flag + " requires a number");
  std::uint64_t out = 0;
  const char* const last = v.data() + v.size();
  const auto [end, ec] = std::from_chars(v.data(), last, out);
  if (ec == std::errc::invalid_argument || end != last)
    return make_error(flag + " requires a number, got '" + v + "'");
  if (ec == std::errc::result_out_of_range || out > max)
    return make_error(flag + " " + v + " is out of range (at most " +
                      std::to_string(max) + ")");
  return out;
}

/// arg_u64 for a flag stored as T: a value T cannot hold is an error.
template <typename T>
Result<T> arg_uint(const std::vector<std::string>& args, std::size_t& i,
                   const std::string& flag) {
  return static_cast<T>(RW_TRY(arg_u64(
      args, i, flag,
      static_cast<std::uint64_t>(std::numeric_limits<T>::max()))));
}

/// A microsecond count following flag `args[i]`, returned in picoseconds;
/// a count whose picoseconds do not fit 64 bits is an error.
inline Result<DurationPs> arg_us(const std::vector<std::string>& args,
                                 std::size_t& i, const std::string& flag) {
  return microseconds(RW_TRY(arg_u64(
      args, i, flag,
      std::numeric_limits<std::uint64_t>::max() / microseconds(1))));
}

/// Try to consume `args[i]` as one of the shared flags. Returns true when
/// it was one (i may have advanced past a value), false when the flag is
/// tool-specific and the caller should handle it.
inline Result<bool> parse_common_flag(const std::vector<std::string>& args,
                                      std::size_t& i, CommonOptions& opts) {
  const std::string& a = args[i];
  if (a == "--list") {
    opts.list = true;
  } else if (a == "--json") {
    opts.json_stdout = true;
  } else if (a == "--no-files") {
    opts.write_files = false;
  } else if (a == "--seed") {
    opts.seed = RW_TRY(arg_u64(args, i, a));
  } else if (a == "--out-dir") {
    if (i + 1 >= args.size()) return make_error("--out-dir requires a value");
    const std::string& dir = args[++i];
    opts.out_dir = dir.empty() ? std::string(".") : dir;
  } else if (a.rfind("--out=", 0) == 0) {
    opts.out_dir = a.size() > 6 ? a.substr(6) : std::string(".");
  } else {
    return false;
  }
  return true;
}

/// The usage fragment for the shared flags, for per-tool --help text.
inline const char* common_usage() {
  return "[--list] [--json] [--no-files] [--seed S] [--out-dir DIR]";
}

/// Wrap a pre-rendered tool document in the rw-tool-1 envelope:
/// {schema, tool, seed, payload}. The payload keeps its own schema field.
/// Deterministic: pure function of its inputs.
inline std::string envelope(std::string_view tool, std::uint64_t seed,
                            std::string tool_doc) {
  // Drop the trailing newline tool docs carry, then re-indent the payload
  // one level so the envelope stays readable.
  while (!tool_doc.empty() &&
         (tool_doc.back() == '\n' || tool_doc.back() == ' '))
    tool_doc.pop_back();
  std::string indented;
  indented.reserve(tool_doc.size());
  for (const char c : tool_doc) {
    indented += c;
    if (c == '\n') indented += "  ";
  }
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-tool-1");
  w.key("tool").value(tool);
  w.key("seed").value(seed);
  w.key("payload").raw(indented);
  w.end_object();
  return w.str();
}

/// Write `content` to `path` byte-exactly; returns false on I/O failure.
inline bool write_text(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(f);
}

}  // namespace rw::cli
