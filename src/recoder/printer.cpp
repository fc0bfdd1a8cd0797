#include "recoder/printer.hpp"

#include <cstdint>

namespace rw::recoder {
namespace {

std::string print_expr_prec(const Expr& e, int parent_prec) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      // INT64_MIN has no literal (its magnitude does not fit); this
      // spelling parses back to the same value.
      if (e.value == INT64_MIN) return "(-9223372036854775807 - 1)";
      return std::to_string(e.value);
    case ExprKind::kIdent:
      return e.name;
    case ExprKind::kBinary: {
      const int prec = binary_precedence(e.op);
      std::string s = print_expr_prec(*e.kids[0], prec) + " " + e.op + " " +
                      print_expr_prec(*e.kids[1], prec + 1);
      if (prec < parent_prec) return "(" + s + ")";
      return s;
    }
    case ExprKind::kUnary:
      return e.op + print_expr_prec(*e.kids[0], kPrefixPrecedence);
    case ExprKind::kIndex:
      return print_expr_prec(*e.kids[0], kPrefixPrecedence) + "[" +
             print_expr_prec(*e.kids[1], 0) + "]";
    case ExprKind::kDeref:
    case ExprKind::kAddrOf:
      return std::string(e.kind == ExprKind::kDeref ? "*" : "&")
          .append(print_expr_prec(*e.kids[0], kPrefixPrecedence));
    case ExprKind::kCall: {
      std::string s = e.name + "(";
      for (std::size_t i = 0; i < e.kids.size(); ++i) {
        if (i) s += ", ";
        s += print_expr_prec(*e.kids[i], 0);
      }
      return s + ")";
    }
  }
  return "?";
}

std::string pad(int indent) {
  return std::string(static_cast<std::size_t>(indent) * 2, ' ');
}

std::string print_body(const std::vector<StmtPtr>& body, int indent) {
  std::string s;
  for (const auto& st : body) s += print_stmt(*st, indent);
  return s;
}

/// Print an assign/expr statement without trailing ";\n" (for for-headers).
std::string print_inline(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::kAssign:
      return print_expr(*s.lhs) + " = " + print_expr(*s.expr);
    case StmtKind::kExprStmt:
      return print_expr(*s.expr);
    case StmtKind::kDecl:
      return "int " + s.name +
             (s.expr ? " = " + print_expr(*s.expr) : std::string{});
    default:
      return "/*?*/";
  }
}

}  // namespace

std::string print_expr(const Expr& e) { return print_expr_prec(e, 0); }

std::string print_stmt(const Stmt& s, int indent) {
  const std::string p = pad(indent);
  switch (s.kind) {
    case StmtKind::kDecl: {
      std::string out = p + "int ";
      if (s.is_pointer) out += "*";
      out += s.name;
      if (s.is_array)
        out.append("[").append(std::to_string(s.array_size)).append("]");
      if (s.expr) out += " = " + print_expr(*s.expr);
      return out + ";\n";
    }
    case StmtKind::kAssign:
      return p + print_expr(*s.lhs) + " = " + print_expr(*s.expr) + ";\n";
    case StmtKind::kExprStmt:
      return p + print_expr(*s.expr) + ";\n";
    case StmtKind::kIf: {
      std::string out = p + "if (" + print_expr(*s.expr) + ") {\n" +
                        print_body(s.body, indent + 1) + p + "}";
      if (!s.orelse.empty()) {
        out += " else {\n" + print_body(s.orelse, indent + 1) + p + "}";
      }
      return out + "\n";
    }
    case StmtKind::kFor:
      return p + "for (" + print_inline(*s.init) + "; " +
             print_expr(*s.expr) + "; " + print_inline(*s.step) + ") {\n" +
             print_body(s.body, indent + 1) + p + "}\n";
    case StmtKind::kWhile:
      return p + "while (" + print_expr(*s.expr) + ") {\n" +
             print_body(s.body, indent + 1) + p + "}\n";
    case StmtKind::kReturn: {
      std::string out = p + "return";
      if (s.expr) out.append(" ").append(print_expr(*s.expr));
      return out + ";\n";
    }
    case StmtKind::kBlock:
      return p + "{\n" + print_body(s.body, indent + 1) + p + "}\n";
  }
  return p + "/*?*/\n";
}

std::string print_function(const Function& f) {
  std::string s = (f.returns_value ? "int " : "void ") + f.name + "(";
  for (std::size_t i = 0; i < f.params.size(); ++i) {
    if (i) s += ", ";
    s += "int ";
    if (f.params[i].is_pointer) s += "*";
    s += f.params[i].name;
    if (f.params[i].is_array) s += "[]";
  }
  s += ") {\n" + print_body(f.body, 1) + "}\n";
  return s;
}

std::string print_program(const Program& p) {
  std::string s;
  for (const auto& g : p.globals) s += print_stmt(*g, 0);
  if (!p.globals.empty()) s += "\n";
  for (std::size_t i = 0; i < p.functions.size(); ++i) {
    if (i) s += "\n";
    s += print_function(p.functions[i]);
  }
  return s;
}

}  // namespace rw::recoder
