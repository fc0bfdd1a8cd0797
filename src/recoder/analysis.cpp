#include "recoder/analysis.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "common/strings.hpp"

namespace rw::recoder {
namespace {

void collect_expr_reads(const Expr& e, std::set<std::string>& reads) {
  for_each_expr(e, [&](const Expr& x) {
    if (x.kind == ExprKind::kIdent) reads.insert(x.name);
  });
}

void collect_lhs(const Expr& lhs, VarUse& use) {
  switch (lhs.kind) {
    case ExprKind::kIdent:
      use.writes.insert(lhs.name);
      return;
    case ExprKind::kIndex:
      // a[i] = ... writes a, reads i (and whatever the base expr reads).
      if (lhs.kids[0]->kind == ExprKind::kIdent) {
        use.writes.insert(lhs.kids[0]->name);
      } else {
        collect_expr_reads(*lhs.kids[0], use.reads);
      }
      collect_expr_reads(*lhs.kids[1], use.reads);
      return;
    case ExprKind::kDeref:
      // *p = ... reads p, writes through it (target unknown -> record p).
      collect_expr_reads(*lhs.kids[0], use.reads);
      if (lhs.kids[0]->kind == ExprKind::kIdent)
        use.writes.insert(lhs.kids[0]->name);
      return;
    default:
      collect_expr_reads(lhs, use.reads);
      return;
  }
}

/// The names statement `s` itself declares, assigns and reads (nested
/// statements are the caller's walk).
void record_uses(const Stmt& s, VarUse& use) {
  if (s.kind == StmtKind::kDecl) use.writes.insert(s.name);
  if (s.lhs) collect_lhs(*s.lhs, use);
  if (s.expr) collect_expr_reads(*s.expr, use.reads);
}

}  // namespace

VarUse stmt_uses(const Stmt& s) {
  VarUse use;
  for_each_stmt(s, [&](const Stmt& n) { record_uses(n, use); });
  return use;
}

VarUse body_uses(const std::vector<StmtPtr>& body) {
  VarUse use;
  for_each_stmt(body, [&](const Stmt& n) { record_uses(n, use); });
  return use;
}

std::optional<CanonicalLoop> canonical_loop(const Stmt& s) {
  if (s.kind != StmtKind::kFor) return std::nullopt;
  // init: i = <lit> or int i = <lit>
  const Stmt& init = *s.init;
  std::string var;
  if (init.kind == StmtKind::kAssign &&
      init.lhs->kind == ExprKind::kIdent) {
    var = init.lhs->name;
  } else if (init.kind == StmtKind::kDecl && !init.is_array &&
             !init.is_pointer) {
    var = init.name;
  } else {
    return std::nullopt;
  }
  const Expr* init_val = init.expr.get();
  if (!init_val || init_val->kind != ExprKind::kIntLit) return std::nullopt;

  // cond: i < <lit>
  const Expr& cond = *s.expr;
  if (cond.kind != ExprKind::kBinary || cond.op != "<" ||
      cond.kids[0]->kind != ExprKind::kIdent ||
      cond.kids[0]->name != var ||
      cond.kids[1]->kind != ExprKind::kIntLit)
    return std::nullopt;

  // step: i = i + 1
  const Stmt& step = *s.step;
  if (step.kind != StmtKind::kAssign ||
      step.lhs->kind != ExprKind::kIdent || step.lhs->name != var)
    return std::nullopt;
  const Expr& se = *step.expr;
  if (se.kind != ExprKind::kBinary || se.op != "+" ||
      se.kids[0]->kind != ExprKind::kIdent || se.kids[0]->name != var ||
      se.kids[1]->kind != ExprKind::kIntLit || se.kids[1]->value != 1)
    return std::nullopt;

  CanonicalLoop cl;
  cl.var = var;
  cl.lower = init_val->value;
  cl.upper = cond.kids[1]->value;
  return cl;
}

namespace {

bool expr_array_ok(const Expr& e, const std::string& name,
                   const std::string& loop_var) {
  if (e.kind == ExprKind::kIndex && e.kids[0]->kind == ExprKind::kIdent &&
      e.kids[0]->name == name) {
    const Expr& idx = *e.kids[1];
    if (!(idx.kind == ExprKind::kIdent && idx.name == loop_var))
      return false;
    return true;  // base checked; index is exactly the loop var
  }
  if (e.kind == ExprKind::kIdent && e.name == name)
    return false;  // bare use (aliasing, pointer decay): not analyzable
  for (const auto& k : e.kids)
    if (!expr_array_ok(*k, name, loop_var)) return false;
  return true;
}

}  // namespace

bool array_accessed_only_at(const std::vector<StmtPtr>& body,
                            const std::string& name,
                            const std::string& loop_var) {
  bool ok = true;
  for_each_stmt(body, [&](const Stmt& s) {
    if (s.expr) ok = ok && expr_array_ok(*s.expr, name, loop_var);
    if (s.lhs) ok = ok && expr_array_ok(*s.lhs, name, loop_var);
  });
  return ok;
}

bool loop_is_data_parallel(const Stmt& for_stmt) {
  const auto cl = canonical_loop(for_stmt);
  if (!cl) return false;
  const VarUse use = body_uses(for_stmt.body);

  // Loop-local declarations.
  std::set<std::string> locals;
  for (const auto& s : for_stmt.body)
    if (s->kind == StmtKind::kDecl) locals.insert(s->name);

  for (const auto& w : use.writes) {
    if (w == cl->var) return false;  // body mutates the induction variable
    if (locals.count(w)) continue;
    // A non-local write must be an array accessed only at the loop var.
    if (!array_accessed_only_at(for_stmt.body, w, cl->var)) return false;
  }
  // Arrays that are also read must be index-disciplined too, unless they
  // are read-only (read-only arrays at any index are fine).
  return true;
}

std::set<std::string> pointer_variables(const Function& f) {
  std::set<std::string> out;
  for (const auto& p : f.params)
    if (p.is_pointer) out.insert(p.name);
  for_each_stmt(f.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::kDecl && s.is_pointer) out.insert(s.name);
  });
  return out;
}

bool uses_pointers(const Function& f) {
  if (!pointer_variables(f).empty()) return true;
  bool found = false;
  for_each_stmt(f.body, [&](const Stmt& s) {
    for_each_expr(s, [&](const Expr& e) {
      found |= e.kind == ExprKind::kDeref || e.kind == ExprKind::kAddrOf;
    });
  });
  return found;
}

std::size_t count_nodes(const std::vector<StmtPtr>& body) {
  std::size_t n = 0;
  for_each_stmt(body, [&](const Stmt& s) {
    ++n;
    for_each_expr(s, [&](const Expr&) { ++n; });
  });
  return n;
}

std::size_t line_diff(const std::string& before, const std::string& after) {
  const auto a = split(before, '\n');
  const auto b = split(after, '\n');
  // Longest common subsequence -> minimal line add/remove count.
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<std::size_t>> lcs(n + 1,
                                            std::vector<std::size_t>(m + 1));
  for (std::size_t i = 1; i <= n; ++i)
    for (std::size_t j = 1; j <= m; ++j)
      lcs[i][j] = a[i - 1] == b[j - 1]
                      ? lcs[i - 1][j - 1] + 1
                      : std::max(lcs[i - 1][j], lcs[i][j - 1]);
  return (n - lcs[n][m]) + (m - lcs[n][m]);
}

}  // namespace rw::recoder
