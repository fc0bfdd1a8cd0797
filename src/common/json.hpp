// Minimal JSON emission and parsing for machine-readable experiment I/O.
//
// The benches and the harness export BENCH_*.json files that downstream
// tooling (plots, regression tracking) can parse without scraping ASCII
// tables; the fuzz campaign closes the loop by reading shrunk cases and
// fault plans back in (rwfault --plan, rwfuzz --replay). Output is
// deterministic: keys appear in insertion order, and a double renders as
// printf's %.15g when that reads back exactly, else as %.17g, which
// always does (non-finite values become null). The writer implements this
// rule with std::to_chars / std::from_chars, which the standard defines to
// match printf byte for byte, so it allocates no temporaries and never
// throws on a finite double. The reader keeps each number's raw token so
// 64-bit integers (picosecond timestamps, addresses) survive a
// parse/re-emit cycle byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace rw::json {

/// Append `s` as the body of a JSON string (no quotes): quote, backslash
/// and the control characters escaped, every other byte as is. Each run
/// of bytes that needs no escape goes in with one append. The Writer's
/// keys and strings and perf::to_chrome_trace's labels go through it.
void append_escaped(std::string& out, std::string_view s);

/// Streaming writer with structural validation by assertion. Typical use:
///
///   json::Writer w;
///   w.begin_object();
///   w.key("name").value("a5_arch_dse");
///   w.key("runs").begin_array();
///   ...
///   w.end_array().end_object();
///   write_file(path, w.str());
class Writer {
 public:
  explicit Writer(bool pretty = true) : pretty_(pretty) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Object member key; must be followed by a value or container.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double v);
  Writer& value(std::uint64_t v);
  Writer& value(bool v);

  /// Splice a pre-rendered JSON document in value position. The caller
  /// vouches that `json` is itself valid JSON; the writer only handles
  /// the surrounding comma/key bookkeeping. Used to embed a legacy tool
  /// document as the payload of an envelope without re-parsing it.
  Writer& raw(std::string_view json);

  /// The document so far. Call once nesting is back to depth zero.
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void prepare_value();  // comma/newline/indent bookkeeping before a value
  void indent();

  std::string out_;
  std::vector<bool> is_object_;   // nesting stack: true = object
  std::vector<bool> has_items_;   // whether current container needs a comma
  bool pretty_;
  bool after_key_ = false;
};

/// Parsed JSON value tree. Object members keep document order, so a
/// parse/re-emit round trip of a Writer document is byte-stable.
class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  Value() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool boolean() const { return bool_; }
  [[nodiscard]] double number() const { return number_; }
  /// The number's raw source token (e.g. "18446744073709551615"), exact
  /// where a double round trip would not be.
  [[nodiscard]] const std::string& raw_number() const { return text_; }
  /// Integer value parsed from the raw token; falls back to a double cast
  /// for tokens with a fraction or exponent. `ok` (optional) reports
  /// whether the token was a plain non-negative integer.
  [[nodiscard]] std::uint64_t u64(bool* ok = nullptr) const;
  [[nodiscard]] const std::string& string() const { return text_; }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const Value& at(std::size_t i) const { return items_[i]; }
  [[nodiscard]] const std::vector<Value>& items() const { return items_; }

  using Member = std::pair<std::string, Value>;
  [[nodiscard]] const std::vector<Member>& members() const {
    return members_;
  }
  /// Object member by key, or nullptr when absent / not an object.
  [[nodiscard]] const Value* get(std::string_view key) const;

  // Typed member lookups with fallbacks — the shape every schema loader
  // in this repo needs: missing key or wrong type -> fallback.
  [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                      std::uint64_t fallback = 0) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view fallback = "") const;

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;           // string value, or raw number token
  std::vector<Value> items_;   // array elements
  std::vector<Member> members_;  // object members, document order
};

/// Parse a complete JSON document. Errors carry 1-based line:column.
/// Strict: no comments, no trailing commas, no trailing garbage.
Result<Value> parse(std::string_view text);

}  // namespace rw::json
