// Mini-C abstract syntax tree.
//
// The Source Recoder (Sec. VI) operates on "applications written in a
// C-based SLDL": it keeps an AST in sync with the text and applies
// designer-invoked transformations to it. This AST covers the C subset
// the recoding transformations need — scalars, fixed-size int arrays,
// pointers, functions, for/while/if control flow — and is value-cloneable
// so the transformation journal can snapshot cheaply.
//
// This header also owns three rules of the language that the parser,
// printer, interpreter and transformations all read, so no reader keeps a
// copy of its own:
//   - operator precedence: binary_precedence() / kPrefixPrecedence;
//   - integer semantics: apply_binary() / apply_unary();
//   - traversal: for_each_stmt() / for_each_expr().
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rw::recoder {

// ----------------------------------------------------------- expressions

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind : std::uint8_t {
  kIntLit,   // value
  kIdent,    // name
  kBinary,   // op, kids[0] op kids[1]
  kUnary,    // op, kids[0] (ops: -, !)
  kIndex,    // kids[0] [ kids[1] ]
  kDeref,    // * kids[0]
  kAddrOf,   // & kids[0]
  kCall,     // name(kids...)
};

struct Expr {
  ExprKind kind = ExprKind::kIntLit;
  std::int64_t value = 0;   // kIntLit
  std::string name;         // kIdent, kCall
  std::string op;           // kBinary, kUnary
  std::vector<ExprPtr> kids;

  [[nodiscard]] ExprPtr clone() const;
};

ExprPtr make_int(std::int64_t v);
ExprPtr make_ident(std::string name);
ExprPtr make_binary(std::string op, ExprPtr lhs, ExprPtr rhs);
ExprPtr make_unary(std::string op, ExprPtr operand);
ExprPtr make_index(ExprPtr base, ExprPtr index);
ExprPtr make_deref(ExprPtr ptr);
ExprPtr make_addrof(ExprPtr lv);
ExprPtr make_call(std::string name, std::vector<ExprPtr> args);

// ------------------------------------------------------------ statements

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class StmtKind : std::uint8_t {
  kDecl,      // int name; / int name = init; / int name[size]; / int *name;
  kAssign,    // lhs = rhs;  (lhs: ident, index, deref)
  kExprStmt,  // expr; (typically a call)
  kIf,        // cond, then_block, else_block (optional)
  kFor,       // init (assign/decl), cond, step (assign), body
  kWhile,     // cond, body
  kReturn,    // expr (optional)
  kBlock,     // body
};

struct Stmt {
  StmtKind kind = StmtKind::kBlock;
  // kDecl
  std::string name;
  bool is_array = false;
  std::int64_t array_size = 0;
  bool is_pointer = false;
  // kDecl init / kAssign rhs / kExprStmt expr / kReturn expr /
  // kIf & kWhile & kFor cond:
  ExprPtr expr;
  ExprPtr lhs;  // kAssign target
  // Control-flow children:
  StmtPtr init;                 // kFor
  StmtPtr step;                 // kFor
  std::vector<StmtPtr> body;    // kBlock, kIf then, kFor, kWhile
  std::vector<StmtPtr> orelse;  // kIf else

  [[nodiscard]] StmtPtr clone() const;
};

StmtPtr make_decl(std::string name, ExprPtr init = nullptr);
StmtPtr make_array_decl(std::string name, std::int64_t size);
StmtPtr make_pointer_decl(std::string name, ExprPtr init = nullptr);
StmtPtr make_assign(ExprPtr lhs, ExprPtr rhs);
StmtPtr make_expr_stmt(ExprPtr e);
StmtPtr make_if(ExprPtr cond, std::vector<StmtPtr> then_body,
                std::vector<StmtPtr> else_body = {});
StmtPtr make_for(StmtPtr init, ExprPtr cond, StmtPtr step,
                 std::vector<StmtPtr> body);
StmtPtr make_while(ExprPtr cond, std::vector<StmtPtr> body);
StmtPtr make_return(ExprPtr e);
StmtPtr make_block(std::vector<StmtPtr> body);

std::vector<StmtPtr> clone_body(const std::vector<StmtPtr>& body);

// ------------------------------------------------------------- functions

struct Param {
  std::string name;
  bool is_array = false;    // int name[] — passed by reference
  bool is_pointer = false;  // int *name
};

struct Function {
  std::string name;
  bool returns_value = true;  // int f() vs void f()
  std::vector<Param> params;
  std::vector<StmtPtr> body;

  [[nodiscard]] Function clone() const;
};

struct Program {
  std::vector<StmtPtr> globals;  // kDecl only
  std::vector<Function> functions;

  [[nodiscard]] Program clone() const;
  [[nodiscard]] Function* find_function(const std::string& name);
  [[nodiscard]] const Function* find_function(const std::string& name) const;
};

// ------------------------------------------------------------ precedence

/// Binding strength of binary operator `op`, from 1 (`||`) to 6
/// (`*` `/` `%`); 0 for anything that is not a binary operator.
[[nodiscard]] int binary_precedence(std::string_view op);

/// Prefix operators and postfix `[]` bind tighter than every binary one.
inline constexpr int kPrefixPrecedence = 7;

// ------------------------------------------------------ integer semantics

/// `a op b` on mini-C's 64-bit integers: +, - and * wrap (two's
/// complement), INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0,
/// comparisons and && / || give 0 or 1 (both operands evaluated).
/// std::nullopt for division or modulo by zero and for an unknown `op`.
[[nodiscard]] std::optional<std::int64_t> apply_binary(std::string_view op,
                                                       std::int64_t a,
                                                       std::int64_t b);

/// `op v` for the unary operators: - wraps (-INT64_MIN is INT64_MIN),
/// ! gives 0 or 1. std::nullopt for an unknown `op`.
[[nodiscard]] std::optional<std::int64_t> apply_unary(std::string_view op,
                                                      std::int64_t v);

// ------------------------------------------------------------- traversal

namespace detail {
/// `To`, const-qualified when `From` is.
template <typename From, typename To>
using like_const = std::conditional_t<std::is_const_v<From>, const To, To>;
}  // namespace detail

/// Visit `s` and every statement nested in it (for-loop init and step,
/// bodies, else branches), pre-order. Works on const and non-const trees;
/// `fn` may edit the statements it is handed but must not add or remove
/// statements in a vector being walked.
template <typename S, typename Fn>
  requires std::same_as<std::remove_const_t<S>, Stmt>
void for_each_stmt(S& s, Fn&& fn) {
  fn(s);
  if (s.init) for_each_stmt<S>(*s.init, fn);
  if (s.step) for_each_stmt<S>(*s.step, fn);
  for (const auto& c : s.body) for_each_stmt<S>(*c, fn);
  for (const auto& c : s.orelse) for_each_stmt<S>(*c, fn);
}

/// for_each_stmt over every statement of a body, in order.
template <typename Body, typename Fn>
  requires std::same_as<std::remove_const_t<Body>, std::vector<StmtPtr>>
void for_each_stmt(Body& body, Fn&& fn) {
  for (const auto& sp : body)
    for_each_stmt<detail::like_const<Body, Stmt>>(*sp, fn);
}

/// Visit `e` and every subexpression, pre-order.
template <typename E, typename Fn>
  requires std::same_as<std::remove_const_t<E>, Expr>
void for_each_expr(E& e, Fn&& fn) {
  fn(e);
  for (const auto& k : e.kids) for_each_expr<E>(*k, fn);
}

/// Visit the expressions of statement `s` itself (its expr, then its
/// assignment target), not those of nested statements; pair it with
/// for_each_stmt to reach every expression of a tree.
template <typename S, typename Fn>
  requires std::same_as<std::remove_const_t<S>, Stmt>
void for_each_expr(S& s, Fn&& fn) {
  using E = detail::like_const<S, Expr>;
  if (s.expr) for_each_expr<E>(*s.expr, fn);
  if (s.lhs) for_each_expr<E>(*s.lhs, fn);
}

}  // namespace rw::recoder
