#include "recoder/ast.hpp"

namespace rw::recoder {

ExprPtr Expr::clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->value = value;
  e->name = name;
  e->op = op;
  e->kids.reserve(kids.size());
  for (const auto& k : kids) e->kids.push_back(k->clone());
  return e;
}

ExprPtr make_int(std::int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntLit;
  e->value = v;
  return e;
}

ExprPtr make_ident(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIdent;
  e->name = std::move(name);
  return e;
}

ExprPtr make_binary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = std::move(op);
  e->kids.push_back(std::move(lhs));
  e->kids.push_back(std::move(rhs));
  return e;
}

ExprPtr make_unary(std::string op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->op = std::move(op);
  e->kids.push_back(std::move(operand));
  return e;
}

ExprPtr make_index(ExprPtr base, ExprPtr index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIndex;
  e->kids.push_back(std::move(base));
  e->kids.push_back(std::move(index));
  return e;
}

ExprPtr make_deref(ExprPtr ptr) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kDeref;
  e->kids.push_back(std::move(ptr));
  return e;
}

ExprPtr make_addrof(ExprPtr lv) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAddrOf;
  e->kids.push_back(std::move(lv));
  return e;
}

ExprPtr make_call(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCall;
  e->name = std::move(name);
  e->kids = std::move(args);
  return e;
}

StmtPtr Stmt::clone() const {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->name = name;
  s->is_array = is_array;
  s->array_size = array_size;
  s->is_pointer = is_pointer;
  if (expr) s->expr = expr->clone();
  if (lhs) s->lhs = lhs->clone();
  if (init) s->init = init->clone();
  if (step) s->step = step->clone();
  s->body = clone_body(body);
  s->orelse = clone_body(orelse);
  return s;
}

std::vector<StmtPtr> clone_body(const std::vector<StmtPtr>& body) {
  std::vector<StmtPtr> out;
  out.reserve(body.size());
  for (const auto& s : body) out.push_back(s->clone());
  return out;
}

StmtPtr make_decl(std::string name, ExprPtr init) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kDecl;
  s->name = std::move(name);
  s->expr = std::move(init);
  return s;
}

StmtPtr make_array_decl(std::string name, std::int64_t size) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kDecl;
  s->name = std::move(name);
  s->is_array = true;
  s->array_size = size;
  return s;
}

StmtPtr make_pointer_decl(std::string name, ExprPtr init) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kDecl;
  s->name = std::move(name);
  s->is_pointer = true;
  s->expr = std::move(init);
  return s;
}

StmtPtr make_assign(ExprPtr lhs, ExprPtr rhs) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kAssign;
  s->lhs = std::move(lhs);
  s->expr = std::move(rhs);
  return s;
}

StmtPtr make_expr_stmt(ExprPtr e) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kExprStmt;
  s->expr = std::move(e);
  return s;
}

StmtPtr make_if(ExprPtr cond, std::vector<StmtPtr> then_body,
                std::vector<StmtPtr> else_body) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kIf;
  s->expr = std::move(cond);
  s->body = std::move(then_body);
  s->orelse = std::move(else_body);
  return s;
}

StmtPtr make_for(StmtPtr init, ExprPtr cond, StmtPtr step,
                 std::vector<StmtPtr> body) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kFor;
  s->init = std::move(init);
  s->expr = std::move(cond);
  s->step = std::move(step);
  s->body = std::move(body);
  return s;
}

StmtPtr make_while(ExprPtr cond, std::vector<StmtPtr> body) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kWhile;
  s->expr = std::move(cond);
  s->body = std::move(body);
  return s;
}

StmtPtr make_return(ExprPtr e) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kReturn;
  s->expr = std::move(e);
  return s;
}

StmtPtr make_block(std::vector<StmtPtr> body) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kBlock;
  s->body = std::move(body);
  return s;
}

Function Function::clone() const {
  Function f;
  f.name = name;
  f.returns_value = returns_value;
  f.params = params;
  f.body = clone_body(body);
  return f;
}

Program Program::clone() const {
  Program p;
  p.globals = clone_body(globals);
  p.functions.reserve(functions.size());
  for (const auto& f : functions) p.functions.push_back(f.clone());
  return p;
}

Function* Program::find_function(const std::string& name) {
  for (auto& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

const Function* Program::find_function(const std::string& name) const {
  for (const auto& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

int binary_precedence(std::string_view op) {
  if (op == "||") return 1;
  if (op == "&&") return 2;
  if (op == "==" || op == "!=") return 3;
  if (op == "<" || op == "<=" || op == ">" || op == ">=") return 4;
  if (op == "+" || op == "-") return 5;
  if (op == "*" || op == "/" || op == "%") return 6;
  return 0;
}

std::optional<std::int64_t> apply_binary(std::string_view op, std::int64_t a,
                                         std::int64_t b) {
  // Wrapping arithmetic is computed in unsigned, where overflow is defined.
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  auto wrap = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  auto boolean = [](bool v) { return static_cast<std::int64_t>(v); };
  if (op == "+") return wrap(ua + ub);
  if (op == "-") return wrap(ua - ub);
  if (op == "*") return wrap(ua * ub);
  if (op == "/" || op == "%") {
    if (b == 0) return std::nullopt;
    if (b == -1) return op == "/" ? wrap(0 - ua) : 0;  // a / -1 may overflow
    return op == "/" ? a / b : a % b;
  }
  if (op == "==") return boolean(a == b);
  if (op == "!=") return boolean(a != b);
  if (op == "<") return boolean(a < b);
  if (op == "<=") return boolean(a <= b);
  if (op == ">") return boolean(a > b);
  if (op == ">=") return boolean(a >= b);
  if (op == "&&") return boolean(a != 0 && b != 0);
  if (op == "||") return boolean(a != 0 || b != 0);
  return std::nullopt;
}

std::optional<std::int64_t> apply_unary(std::string_view op, std::int64_t v) {
  if (op == "-") return apply_binary("-", 0, v);
  if (op == "!") return static_cast<std::int64_t>(v == 0);
  return std::nullopt;
}

}  // namespace rw::recoder
