#include "recoder/parser.hpp"

#include <algorithm>
#include <cctype>
#include <map>

namespace rw::recoder {
namespace {

// ------------------------------------------------------------------ lexer

enum class Tok : std::uint8_t {
  kEof, kInt, kIdent, kNumber, kVoid, kIf, kElse, kFor, kWhile, kReturn,
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kSemi, kComma, kAssign, kPunct,  // kPunct: operators, in `text`
};

struct Token {
  Tok kind = Tok::kEof;
  std::string text;
  std::int64_t number = 0;
  bool in_range = true;  // kNumber: the literal fits std::int64_t
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  [[nodiscard]] const Token& peek() const { return cur_; }
  Token take() {
    Token t = cur_;
    advance();
    return t;
  }

 private:
  void advance() {
    skip_ws_comments();
    cur_ = Token{};
    cur_.line = line_;
    cur_.col = col_;
    if (pos_ >= src_.size()) {
      cur_.kind = Tok::kEof;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_'))
        word += get();
      static const std::map<std::string, Tok> kw{
          {"int", Tok::kInt},     {"void", Tok::kVoid},
          {"if", Tok::kIf},       {"else", Tok::kElse},
          {"for", Tok::kFor},     {"while", Tok::kWhile},
          {"return", Tok::kReturn}};
      const auto it = kw.find(word);
      cur_.kind = it != kw.end() ? it->second : Tok::kIdent;
      cur_.text = std::move(word);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t v = 0;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        const int d = get() - '0';
        if (v > (INT64_MAX - d) / 10) cur_.in_range = false;
        if (cur_.in_range) v = v * 10 + d;
      }
      cur_.kind = Tok::kNumber;
      cur_.number = v;
      return;
    }
    // Two-char operators first.
    if (pos_ + 1 < src_.size()) {
      const std::string two{src_[pos_], src_[pos_ + 1]};
      if (two == "==" || two == "!=" || two == "<=" || two == ">=" ||
          two == "&&" || two == "||") {
        get();
        get();
        cur_.kind = Tok::kPunct;
        cur_.text = two;
        return;
      }
    }
    get();
    switch (c) {
      case '(': cur_.kind = Tok::kLParen; return;
      case ')': cur_.kind = Tok::kRParen; return;
      case '{': cur_.kind = Tok::kLBrace; return;
      case '}': cur_.kind = Tok::kRBrace; return;
      case '[': cur_.kind = Tok::kLBracket; return;
      case ']': cur_.kind = Tok::kRBracket; return;
      case ';': cur_.kind = Tok::kSemi; return;
      case ',': cur_.kind = Tok::kComma; return;
      case '=': cur_.kind = Tok::kAssign; cur_.text = "="; return;
      default:
        cur_.kind = Tok::kPunct;
        cur_.text = std::string(1, c);
        return;
    }
  }

  char get() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws_comments() {
    for (;;) {
      while (pos_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[pos_])))
        get();
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
          src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') get();
        continue;
      }
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
          src_[pos_ + 1] == '*') {
        get();
        get();
        while (pos_ + 1 < src_.size() &&
               !(src_[pos_] == '*' && src_[pos_ + 1] == '/'))
          get();
        if (pos_ + 1 < src_.size()) {
          get();
          get();
        }
        continue;
      }
      return;
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1, col_ = 1;
  Token cur_;
};

// ----------------------------------------------------------------- parser

class Parser {
 public:
  explicit Parser(std::string_view src) : lex_(src) {}

  Result<Program> parse() {
    Program prog;
    while (lex_.peek().kind != Tok::kEof) {
      const Token head = lex_.peek();
      if (head.kind != Tok::kInt && head.kind != Tok::kVoid)
        return err("expected 'int' or 'void' at top level");
      // Lookahead: int name ( => function; otherwise global decl.
      auto saved = lex_;
      lex_.take();  // type
      bool pointer = false;
      if (is_punct("*")) {
        lex_.take();
        pointer = true;
      }
      if (lex_.peek().kind != Tok::kIdent) return err("expected identifier");
      lex_.take();  // name
      const bool is_fn = lex_.peek().kind == Tok::kLParen;
      lex_ = saved;  // rewind
      (void)pointer;
      if (is_fn) {
        prog.functions.push_back(RW_TRY(parse_function()));
      } else {
        prog.globals.push_back(RW_TRY(parse_decl()));
      }
    }
    return prog;
  }

 private:
  // Nesting bound. The recursive descent goes one level deeper for every
  // nested block and every unary or parenthesized operand, so hostile input
  // cannot exhaust the stack here. Every expression tree the parser builds
  // is at most kMaxDepth tall, so the printer, interpreter and transforms
  // that walk it recurse no deeper than that either.
  static constexpr int kMaxDepth = 256;

  // Holds one nesting level for the enclosing scope.
  class Nest {
   public:
    explicit Nest(int& depth) : depth_(depth) { ++depth_; }
    ~Nest() { --depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    [[nodiscard]] bool too_deep() const { return depth_ > kMaxDepth; }

   private:
    int& depth_;
  };

  // A parsed expression and the height of its tree (a leaf is 1).
  struct Sub {
    ExprPtr e;
    int height = 1;
  };

  Error err(std::string msg) {
    return make_error(std::move(msg), lex_.peek().line, lex_.peek().col);
  }

  [[nodiscard]] bool is_punct(std::string_view p) {
    return lex_.peek().kind == Tok::kPunct && lex_.peek().text == p;
  }

  // Node `e` over kids at most `kids` tall; an error when the tree would
  // grow taller than kMaxDepth.
  Result<Sub> node(ExprPtr e, int kids) {
    if (kids >= kMaxDepth) return err("nesting too deep");
    return Sub{std::move(e), kids + 1};
  }

  // Consume the literal at the cursor.
  Result<std::int64_t> take_number() {
    if (!lex_.peek().in_range) return err("integer literal out of range");
    return lex_.take().number;
  }

  Status expect(Tok k, const char* what) {
    if (lex_.peek().kind != k) return err(std::string("expected ") + what);
    lex_.take();
    return Status::ok_status();
  }

  Result<Function> parse_function() {
    Function f;
    f.returns_value = lex_.take().kind == Tok::kInt;
    f.name = lex_.take().text;
    RW_TRY_STATUS(expect(Tok::kLParen, "'('"));
    if (lex_.peek().kind != Tok::kRParen) {
      for (;;) {
        RW_TRY_STATUS(expect(Tok::kInt, "'int' in parameter"));
        Param p;
        if (is_punct("*")) {
          lex_.take();
          p.is_pointer = true;
        }
        if (lex_.peek().kind != Tok::kIdent)
          return err("expected parameter name");
        p.name = lex_.take().text;
        if (lex_.peek().kind == Tok::kLBracket) {
          lex_.take();
          RW_TRY_STATUS(expect(Tok::kRBracket, "']'"));
          p.is_array = true;
        }
        f.params.push_back(std::move(p));
        if (lex_.peek().kind != Tok::kComma) break;
        lex_.take();
      }
    }
    RW_TRY_STATUS(expect(Tok::kRParen, "')'"));
    f.body = RW_TRY(parse_block());
    return f;
  }

  Result<std::vector<StmtPtr>> parse_block() {
    const Nest nest(depth_);
    if (nest.too_deep()) return err("nesting too deep");
    RW_TRY_STATUS(expect(Tok::kLBrace, "'{'"));
    std::vector<StmtPtr> body;
    while (lex_.peek().kind != Tok::kRBrace) {
      if (lex_.peek().kind == Tok::kEof) return err("unterminated block");
      body.push_back(RW_TRY(parse_stmt()));
    }
    lex_.take();
    return body;
  }

  Result<StmtPtr> parse_decl() {
    lex_.take();  // int
    bool pointer = false;
    if (is_punct("*")) {
      lex_.take();
      pointer = true;
    }
    if (lex_.peek().kind != Tok::kIdent) return err("expected name in decl");
    const std::string name = lex_.take().text;
    if (lex_.peek().kind == Tok::kLBracket) {
      lex_.take();
      if (lex_.peek().kind != Tok::kNumber)
        return err("array size must be a literal");
      const std::int64_t size = RW_TRY(take_number());
      RW_TRY_STATUS(expect(Tok::kRBracket, "']'"));
      RW_TRY_STATUS(expect(Tok::kSemi, "';'"));
      return make_array_decl(name, size);
    }
    ExprPtr init;
    if (lex_.peek().kind == Tok::kAssign) {
      lex_.take();
      init = RW_TRY(parse_expr());
    }
    RW_TRY_STATUS(expect(Tok::kSemi, "';'"));
    return pointer ? make_pointer_decl(name, std::move(init))
                   : make_decl(name, std::move(init));
  }

  Result<StmtPtr> parse_stmt() {
    switch (lex_.peek().kind) {
      case Tok::kInt: return parse_decl();
      case Tok::kLBrace: {
        return make_block(RW_TRY(parse_block()));
      }
      case Tok::kIf: return parse_if();
      case Tok::kFor: return parse_for();
      case Tok::kWhile: return parse_while();
      case Tok::kReturn: {
        lex_.take();
        ExprPtr e;
        if (lex_.peek().kind != Tok::kSemi) e = RW_TRY(parse_expr());
        RW_TRY_STATUS(expect(Tok::kSemi, "';'"));
        return make_return(std::move(e));
      }
      default: {
        StmtPtr st = RW_TRY(parse_assign_or_expr());
        RW_TRY_STATUS(expect(Tok::kSemi, "';'"));
        return st;
      }
    }
  }

  /// assignment or bare expression (no trailing ';').
  Result<StmtPtr> parse_assign_or_expr() {
    ExprPtr target = RW_TRY(parse_expr());
    if (lex_.peek().kind == Tok::kAssign) {
      lex_.take();
      ExprPtr rhs = RW_TRY(parse_expr());
      if (target->kind != ExprKind::kIdent &&
          target->kind != ExprKind::kIndex &&
          target->kind != ExprKind::kDeref)
        return err("invalid assignment target");
      return make_assign(std::move(target), std::move(rhs));
    }
    return make_expr_stmt(std::move(target));
  }

  Result<StmtPtr> parse_if() {
    lex_.take();
    RW_TRY_STATUS(expect(Tok::kLParen, "'('"));
    ExprPtr cond = RW_TRY(parse_expr());
    RW_TRY_STATUS(expect(Tok::kRParen, "')'"));
    std::vector<StmtPtr> then_body = RW_TRY(parse_block());
    std::vector<StmtPtr> else_body;
    if (lex_.peek().kind == Tok::kElse) {
      lex_.take();
      else_body = RW_TRY(parse_block());
    }
    return make_if(std::move(cond), std::move(then_body),
                   std::move(else_body));
  }

  Result<StmtPtr> parse_for() {
    lex_.take();
    RW_TRY_STATUS(expect(Tok::kLParen, "'('"));
    StmtPtr init = RW_TRY(lex_.peek().kind == Tok::kInt
                              ? parse_decl()  // consumes ';'
                              : [&]() -> Result<StmtPtr> {
                                  StmtPtr a = RW_TRY(parse_assign_or_expr());
                                  RW_TRY_STATUS(expect(Tok::kSemi, "';'"));
                                  return a;
                                }());
    ExprPtr cond = RW_TRY(parse_expr());
    RW_TRY_STATUS(expect(Tok::kSemi, "';'"));
    StmtPtr step = RW_TRY(parse_assign_or_expr());
    RW_TRY_STATUS(expect(Tok::kRParen, "')'"));
    std::vector<StmtPtr> body = RW_TRY(parse_block());
    return make_for(std::move(init), std::move(cond), std::move(step),
                    std::move(body));
  }

  Result<StmtPtr> parse_while() {
    lex_.take();
    RW_TRY_STATUS(expect(Tok::kLParen, "'('"));
    ExprPtr cond = RW_TRY(parse_expr());
    RW_TRY_STATUS(expect(Tok::kRParen, "')'"));
    std::vector<StmtPtr> body = RW_TRY(parse_block());
    return make_while(std::move(cond), std::move(body));
  }

  Result<ExprPtr> parse_expr() { return RW_TRY(parse_binary(1)).e; }

  // Precedence climbing over binary_precedence().
  Result<Sub> parse_binary(int min_prec) {
    Sub lhs = RW_TRY(parse_unary());
    while (lex_.peek().kind == Tok::kPunct) {
      const int prec = binary_precedence(lex_.peek().text);
      if (prec < min_prec) break;  // also ends at a non-operator (0)
      const std::string op = lex_.take().text;
      Sub rhs = RW_TRY(parse_binary(prec + 1));
      lhs = RW_TRY(node(make_binary(op, std::move(lhs.e), std::move(rhs.e)),
                        std::max(lhs.height, rhs.height)));
    }
    return lhs;
  }

  Result<Sub> parse_unary() {
    const Nest nest(depth_);
    if (nest.too_deep()) return err("nesting too deep");
    if (is_punct("-") || is_punct("!")) {
      const std::string op = lex_.take().text;
      Sub operand = RW_TRY(parse_unary());
      return node(make_unary(op, std::move(operand.e)), operand.height);
    }
    if (is_punct("*") || is_punct("&")) {
      const bool deref = lex_.take().text == "*";
      Sub operand = RW_TRY(parse_unary());
      return node(deref ? make_deref(std::move(operand.e))
                        : make_addrof(std::move(operand.e)),
                  operand.height);
    }
    return parse_postfix();
  }

  Result<Sub> parse_postfix() {
    Sub e = RW_TRY(parse_primary());
    while (lex_.peek().kind == Tok::kLBracket) {
      lex_.take();
      Sub idx = RW_TRY(parse_binary(1));
      RW_TRY_STATUS(expect(Tok::kRBracket, "']'"));
      e = RW_TRY(node(make_index(std::move(e.e), std::move(idx.e)),
                      std::max(e.height, idx.height)));
    }
    return e;
  }

  Result<Sub> parse_primary() {
    const Token t = lex_.peek();
    if (t.kind == Tok::kNumber) return Sub{make_int(RW_TRY(take_number()))};
    if (t.kind == Tok::kIdent) {
      lex_.take();
      if (lex_.peek().kind != Tok::kLParen) return Sub{make_ident(t.text)};
      lex_.take();
      std::vector<ExprPtr> args;
      int tallest = 0;
      if (lex_.peek().kind != Tok::kRParen) {
        for (;;) {
          Sub arg = RW_TRY(parse_binary(1));
          tallest = std::max(tallest, arg.height);
          args.push_back(std::move(arg.e));
          if (lex_.peek().kind != Tok::kComma) break;
          lex_.take();
        }
      }
      RW_TRY_STATUS(expect(Tok::kRParen, "')'"));
      return node(make_call(t.text, std::move(args)), tallest);
    }
    if (t.kind == Tok::kLParen) {
      lex_.take();
      Sub e = RW_TRY(parse_binary(1));
      RW_TRY_STATUS(expect(Tok::kRParen, "')'"));
      return e;
    }
    return err("expected expression");
  }

  Lexer lex_;
  int depth_ = 0;
};

}  // namespace

Result<Program> parse_program(std::string_view source) {
  return Parser(source).parse();
}

}  // namespace rw::recoder
