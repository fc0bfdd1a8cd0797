#include "common/xml.hpp"

#include <cctype>

#include "common/strings.hpp"

namespace rw::xml {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  Result<std::unique_ptr<Element>> parse_document() {
    skip_prolog();
    auto root = parse_element(0);
    if (!root.ok()) return root;
    skip_ws_and_comments();
    if (pos_ != in_.size())
      return fail("trailing content after root element");
    return root;
  }

 private:
  // Element nesting bound: parse_element recurses once per level, so
  // hostile input must not be able to exhaust the stack.
  static constexpr int kMaxDepth = 256;

  [[nodiscard]] bool eof() const { return pos_ >= in_.size(); }
  [[nodiscard]] char peek() const { return eof() ? '\0' : in_[pos_]; }

  char advance() {
    const char c = in_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  bool consume(std::string_view s) {
    if (in_.substr(pos_).substr(0, s.size()) != s) return false;
    for (std::size_t i = 0; i < s.size(); ++i) advance();
    return true;
  }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek())))
      advance();
  }

  void skip_ws_and_comments() {
    for (;;) {
      skip_ws();
      if (consume("<!--")) {
        while (!eof() && !consume("-->")) advance();
        continue;
      }
      return;
    }
  }

  void skip_prolog() {
    skip_ws();
    if (consume("<?")) {
      while (!eof() && !consume("?>")) advance();
    }
    skip_ws_and_comments();
  }

  Error fail(std::string msg) const { return make_error(std::move(msg), line_, col_); }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  std::string parse_name() {
    std::string name;
    while (!eof() && is_name_char(peek())) name += advance();
    return name;
  }

  std::string decode_entities(std::string_view raw) const {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      const auto rest = raw.substr(i);
      if (starts_with(rest, "&lt;")) {
        out += '<';
        i += 3;
      } else if (starts_with(rest, "&gt;")) {
        out += '>';
        i += 3;
      } else if (starts_with(rest, "&amp;")) {
        out += '&';
        i += 4;
      } else if (starts_with(rest, "&quot;")) {
        out += '"';
        i += 5;
      } else if (starts_with(rest, "&apos;")) {
        out += '\'';
        i += 5;
      } else {
        out += '&';
      }
    }
    return out;
  }

  Result<std::unique_ptr<Element>> parse_element(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws_and_comments();
    if (!consume("<")) return fail("expected '<'");
    auto elem = std::make_unique<Element>();
    elem->line = line_;
    elem->name = parse_name();
    if (elem->name.empty()) return fail("expected element name");

    // Attributes.
    for (;;) {
      skip_ws();
      if (consume("/>")) return elem;  // self-closing
      if (consume(">")) break;
      std::string key = parse_name();
      if (key.empty()) return fail("expected attribute name");
      skip_ws();
      if (!consume("=")) return fail("expected '=' after attribute name");
      skip_ws();
      const char quote = peek();
      if (quote != '"' && quote != '\'') return fail("expected quoted value");
      advance();
      std::string raw;
      while (!eof() && peek() != quote) raw += advance();
      if (eof()) return fail("unterminated attribute value");
      advance();  // closing quote
      elem->attributes.emplace_back(std::move(key), decode_entities(raw));
    }

    // Content: children and text until matching close tag.
    for (;;) {
      if (eof()) return fail("unexpected end of input in <" + elem->name + ">");
      if (consume("<!--")) {
        while (!eof() && !consume("-->")) advance();
        continue;
      }
      if (in_.substr(pos_).substr(0, 2) == "</") {
        consume("</");
        const std::string close = parse_name();
        skip_ws();
        if (!consume(">")) return fail("expected '>' in closing tag");
        if (close != elem->name)
          return fail("mismatched closing tag </" + close + "> for <" +
                      elem->name + ">");
        elem->text = std::string(trim(elem->text));
        return elem;
      }
      if (peek() == '<') {
        auto child = parse_element(depth + 1);
        if (!child.ok()) return child;
        elem->children.push_back(std::move(child).take());
        continue;
      }
      std::string raw;
      while (!eof() && peek() != '<') raw += advance();
      elem->text += decode_entities(raw);
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

void encode_into(std::string& out, std::string_view raw) {
  for (char c : raw) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
}

void serialize_into(const Element& e, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += '<';
  out += e.name;
  for (const auto& [k, v] : e.attributes) {
    out += ' ';
    out += k;
    out += "=\"";
    encode_into(out, v);
    out += '"';
  }
  if (e.children.empty() && e.text.empty()) {
    out += "/>\n";
    return;
  }
  out += '>';
  if (!e.text.empty()) encode_into(out, e.text);
  if (!e.children.empty()) {
    out += '\n';
    for (const auto& c : e.children) serialize_into(*c, depth + 1, out);
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  }
  out += "</";
  out += e.name;
  out += ">\n";
}

}  // namespace

std::string_view Element::attr(std::string_view name) const {
  for (const auto& [k, v] : attributes)
    if (k == name) return v;
  return {};
}

std::uint64_t Element::attr_u64(std::string_view name,
                                std::uint64_t fallback) const {
  std::uint64_t v = 0;
  return parse_u64(attr(name), v) ? v : fallback;
}

const Element* Element::child(std::string_view name) const {
  for (const auto& c : children)
    if (c->name == name) return c.get();
  return nullptr;
}

std::vector<const Element*> Element::children_named(
    std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children)
    if (c->name == name) out.push_back(c.get());
  return out;
}

Result<std::unique_ptr<Element>> parse(std::string_view input) {
  return Parser(input).parse_document();
}

std::string serialize(const Element& root) {
  std::string out;
  serialize_into(root, 0, out);
  return out;
}

}  // namespace rw::xml
