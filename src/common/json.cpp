#include "common/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>

#include "common/strings.hpp"

namespace rw::json {

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void Writer::indent() {
  if (!pretty_) return;
  out_ += '\n';
  out_.append(2 * is_object_.size(), ' ');
}

void Writer::prepare_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  assert(is_object_.empty() || !is_object_.back());  // values in objects need key()
  if (!has_items_.empty()) {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
    indent();
  }
}

Writer& Writer::begin_object() {
  prepare_value();
  out_ += '{';
  is_object_.push_back(true);
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  assert(!is_object_.empty() && is_object_.back());
  const bool had = has_items_.back();
  is_object_.pop_back();
  has_items_.pop_back();
  if (had) indent();
  out_ += '}';
  return *this;
}

Writer& Writer::begin_array() {
  prepare_value();
  out_ += '[';
  is_object_.push_back(false);
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  assert(!is_object_.empty() && !is_object_.back());
  const bool had = has_items_.back();
  is_object_.pop_back();
  has_items_.pop_back();
  if (had) indent();
  out_ += ']';
  return *this;
}

Writer& Writer::key(std::string_view k) {
  assert(!is_object_.empty() && is_object_.back());
  assert(!after_key_);
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  indent();
  out_ += '"';
  append_escaped(out_, k);
  out_ += pretty_ ? "\": " : "\":";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  prepare_value();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return *this;
}

Writer& Writer::value(double v) {
  prepare_value();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no Inf/NaN
    return *this;
  }
  // %.15g when it reads back exactly, else %.17g, which round-trips any
  // double. to_chars with a precision writes exactly printf's %.*g; a
  // form from_chars cannot read back in range (DBL_MAX rounds up) simply
  // takes the 17-digit path.
  char buf[32];
  auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                         15);
  double back = 0.0;
  if (std::from_chars(buf, r.ptr, back).ec != std::errc() || back != v)
    r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                      17);
  out_.append(buf, r.ptr);
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  prepare_value();
  append_chars(out_, v);
  return *this;
}

Writer& Writer::value(bool v) {
  prepare_value();
  out_ += v ? "true" : "false";
  return *this;
}

Writer& Writer::raw(std::string_view json) {
  prepare_value();
  out_ += json;
  return *this;
}

std::uint64_t Value::u64(bool* ok) const {
  std::uint64_t v = 0;
  if (kind_ == Kind::kNumber && parse_u64(text_, v)) {
    if (ok != nullptr) *ok = true;
    return v;
  }
  if (ok != nullptr) *ok = false;
  if (kind_ == Kind::kNumber && number_ > 0.0)
    return static_cast<std::uint64_t>(number_);
  return 0;
}

const Value* Value::get(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

std::uint64_t Value::get_u64(std::string_view key,
                             std::uint64_t fallback) const {
  const Value* v = get(key);
  return v != nullptr && v->is_number() ? v->u64() : fallback;
}

std::string Value::get_string(std::string_view key,
                              std::string_view fallback) const {
  const Value* v = get(key);
  return v != nullptr && v->is_string() ? v->string()
                                        : std::string(fallback);
}

/// Recursive-descent parser over a string_view; tracks line/column for
/// Error locations. Depth-capped so hostile input cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    skip_ws();
    Value root;
    RW_TRY_STATUS(parse_value(root, 0));
    skip_ws();
    if (pos_ != text_.size()) return err("trailing garbage after document");
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[nodiscard]] Error err(std::string msg) const {
    return make_error(std::move(msg), line_, column_);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      advance();
  }

  Status expect(char c) {
    if (eof() || peek() != c)
      return err(std::string("expected '") + c + "'");
    advance();
    return {};
  }

  Status parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return err("nesting too deep");
    if (eof()) return err("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': {
        out.kind_ = Value::Kind::kString;
        return parse_string(out.text_);
      }
      case 't': return parse_literal("true", out, Value::Kind::kBool, true);
      case 'f': return parse_literal("false", out, Value::Kind::kBool, false);
      case 'n': return parse_literal("null", out, Value::Kind::kNull, false);
      default: return parse_number(out);
    }
  }

  Status parse_literal(std::string_view word, Value& out, Value::Kind kind,
                       bool b) {
    if (text_.substr(pos_, word.size()) != word)
      return err("invalid literal");
    for (std::size_t i = 0; i < word.size(); ++i) advance();
    out.kind_ = kind;
    out.bool_ = b;
    return {};
  }

  Status parse_object(Value& out, int depth) {
    advance();  // '{'
    out.kind_ = Value::Kind::kObject;
    skip_ws();
    if (!eof() && peek() == '}') {
      advance();
      return {};
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') return err("expected member key");
      std::string key;
      RW_TRY_STATUS(parse_string(key));
      skip_ws();
      RW_TRY_STATUS(expect(':'));
      skip_ws();
      Value member;
      RW_TRY_STATUS(parse_value(member, depth + 1));
      out.members_.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eof()) return err("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      return expect('}');
    }
  }

  Status parse_array(Value& out, int depth) {
    advance();  // '['
    out.kind_ = Value::Kind::kArray;
    skip_ws();
    if (!eof() && peek() == ']') {
      advance();
      return {};
    }
    for (;;) {
      skip_ws();
      Value item;
      RW_TRY_STATUS(parse_value(item, depth + 1));
      out.items_.push_back(std::move(item));
      skip_ws();
      if (eof()) return err("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      return expect(']');
    }
  }

  Status parse_string(std::string& out) {
    advance();  // opening quote
    out.clear();
    while (!eof()) {
      const char c = advance();
      if (c == '"') return {};
      if (static_cast<unsigned char>(c) < 0x20)
        return err("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) break;
      const char esc = advance();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) return err("truncated \\u escape");
            const char h = advance();
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<std::uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<std::uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<std::uint32_t>(h - 'A' + 10);
            else
              return err("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point; the writer only ever emits
          // \u00xx control escapes, so no surrogate-pair handling.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return err("invalid escape character");
      }
    }
    return err("unterminated string");
  }

  Status parse_number(Value& out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') advance();
    while (!eof() && peek() >= '0' && peek() <= '9') advance();
    if (!eof() && peek() == '.') {
      advance();
      while (!eof() && peek() >= '0' && peek() <= '9') advance();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!eof() && (peek() == '+' || peek() == '-')) advance();
      while (!eof() && peek() >= '0' && peek() <= '9') advance();
    }
    const std::string token(text_.substr(start, pos_ - start));
    double v = 0.0;
    if (token.empty() || !parse_double(token, v))
      return err("invalid number");
    out.kind_ = Value::Kind::kNumber;
    out.number_ = v;
    out.text_ = token;
    return {};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

Result<Value> parse(std::string_view text) { return Parser(text).run(); }

}  // namespace rw::json
