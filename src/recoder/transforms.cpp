#include "recoder/transforms.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "recoder/analysis.hpp"

namespace rw::recoder {
namespace {

/// Indices of top-level for-loops in a function body.
std::vector<std::size_t> top_level_loops(const Function& f) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < f.body.size(); ++i)
    if (f.body[i]->kind == StmtKind::kFor) out.push_back(i);
  return out;
}

ExprPtr make_loop_index(const std::string& var, std::int64_t offset) {
  if (offset == 0) return make_ident(var);
  return make_binary("-", make_ident(var), make_int(offset));
}

/// Replace, in-place, every subexpression matching `match` with the result
/// of `build` (applied bottom-up).
void rewrite_exprs(ExprPtr& e,
                   const std::function<bool(const Expr&)>& match,
                   const std::function<ExprPtr(const Expr&)>& build) {
  for (auto& k : e->kids) rewrite_exprs(k, match, build);
  if (match(*e)) e = build(*e);
}

void rewrite_stmt_exprs(Stmt& s,
                        const std::function<bool(const Expr&)>& match,
                        const std::function<ExprPtr(const Expr&)>& build) {
  if (s.expr) rewrite_exprs(s.expr, match, build);
  if (s.lhs) rewrite_exprs(s.lhs, match, build);
  if (s.init) rewrite_stmt_exprs(*s.init, match, build);
  if (s.step) rewrite_stmt_exprs(*s.step, match, build);
  for (auto& c : s.body) rewrite_stmt_exprs(*c, match, build);
  for (auto& c : s.orelse) rewrite_stmt_exprs(*c, match, build);
}

bool body_mentions(const std::vector<StmtPtr>& body,
                   const std::string& name) {
  const VarUse u = body_uses(body);
  return u.reads.count(name) || u.writes.count(name);
}

StmtPtr make_canonical_for(const std::string& var, std::int64_t lo,
                           std::int64_t hi, std::vector<StmtPtr> body) {
  return make_for(make_decl(var, make_int(lo)),
                  make_binary("<", make_ident(var), make_int(hi)),
                  make_assign(make_ident(var),
                              make_binary("+", make_ident(var), make_int(1))),
                  std::move(body));
}

}  // namespace

// ------------------------------------------------------------- split_loop

Status split_loop(Function& f, std::size_t loop_index, std::size_t parts) {
  if (parts < 2) return make_error("split_loop: parts must be >= 2");
  const auto loops = top_level_loops(f);
  if (loop_index >= loops.size())
    return make_error("split_loop: function '" + f.name + "' has only " +
                      std::to_string(loops.size()) + " top-level loops");
  const std::size_t pos = loops[loop_index];
  Stmt& loop = *f.body[pos];
  const auto cl = canonical_loop(loop);
  if (!cl)
    return make_error("split_loop: loop is not canonical "
                      "(for (i = lit; i < lit; i = i + 1))");
  if (!loop_is_data_parallel(loop))
    return make_error("split_loop: loop carries a dependence between "
                      "iterations; designer must restructure first");
  const std::int64_t n = cl->upper - cl->lower;
  if (n < static_cast<std::int64_t>(parts))
    return make_error("split_loop: fewer iterations than parts");

  const std::int64_t chunk =
      (n + static_cast<std::int64_t>(parts) - 1) /
      static_cast<std::int64_t>(parts);
  std::vector<StmtPtr> replacement;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::int64_t lo = cl->lower + static_cast<std::int64_t>(p) * chunk;
    const std::int64_t hi = std::min<std::int64_t>(lo + chunk, cl->upper);
    if (lo >= hi) break;
    replacement.push_back(
        make_canonical_for(cl->var, lo, hi, clone_body(loop.body)));
  }
  f.body.erase(f.body.begin() + static_cast<std::ptrdiff_t>(pos));
  for (std::size_t i = 0; i < replacement.size(); ++i)
    f.body.insert(f.body.begin() + static_cast<std::ptrdiff_t>(pos + i),
                  std::move(replacement[i]));
  return Status::ok_status();
}

// ----------------------------------------------------------- split_vector

Status split_vector(Program& prog, Function& f, const std::string& name,
                    std::size_t parts) {
  if (parts < 2) return make_error("split_vector: parts must be >= 2");
  // Locate the global array declaration.
  std::size_t decl_pos = SIZE_MAX;
  for (std::size_t i = 0; i < prog.globals.size(); ++i)
    if (prog.globals[i]->name == name && prog.globals[i]->is_array)
      decl_pos = i;
  if (decl_pos == SIZE_MAX)
    return make_error("split_vector: no global array '" + name + "'");
  const std::int64_t n = prog.globals[decl_pos]->array_size;
  const std::int64_t chunk = (n + static_cast<std::int64_t>(parts) - 1) /
                             static_cast<std::int64_t>(parts);

  // The array must be used only inside this function.
  for (const auto& fn : prog.functions) {
    if (fn.name == f.name) continue;
    if (body_mentions(fn.body, name))
      return make_error("split_vector: '" + name + "' is also used in '" +
                        fn.name + "'");
  }

  // Every top-level statement of f that touches the array must be a
  // canonical loop confined to one partition, accessing name[loop_var].
  struct LoopPlan {
    Stmt* loop;
    std::string var;
    std::int64_t partition;
  };
  std::vector<LoopPlan> plans;
  for (auto& sp : f.body) {
    Stmt& s = *sp;
    const VarUse u = stmt_uses(s);
    if (!u.reads.count(name) && !u.writes.count(name)) continue;
    const auto cl = canonical_loop(s);
    if (!cl)
      return make_error("split_vector: a non-canonical statement uses '" +
                        name + "'; split the loop first");
    if (!array_accessed_only_at(s.body, name, cl->var))
      return make_error("split_vector: '" + name +
                        "' is indexed by something other than the loop "
                        "variable");
    const std::int64_t p_lo = cl->lower / chunk;
    const std::int64_t p_hi = (cl->upper - 1) / chunk;
    if (p_lo != p_hi)
      return make_error("split_vector: loop range [" +
                        std::to_string(cl->lower) + "," +
                        std::to_string(cl->upper) +
                        ") spans multiple partitions; split_loop into "
                        "matching parts first");
    plans.push_back(LoopPlan{&s, cl->var, p_lo});
  }
  if (plans.empty())
    return make_error("split_vector: '" + name + "' is never accessed in '" +
                      f.name + "'");

  // Rewrite accesses per plan.
  for (const auto& plan : plans) {
    const std::string part_name =
        name + "_" + std::to_string(plan.partition);
    const std::int64_t offset = plan.partition * chunk;
    rewrite_stmt_exprs(
        *plan.loop,
        [&](const Expr& e) {
          return e.kind == ExprKind::kIndex &&
                 e.kids[0]->kind == ExprKind::kIdent &&
                 e.kids[0]->name == name;
        },
        [&](const Expr& e) {
          (void)e;
          return make_index(make_ident(part_name),
                            make_loop_index(plan.var, offset));
        });
  }

  // Replace the declaration with the partition declarations.
  prog.globals.erase(prog.globals.begin() +
                     static_cast<std::ptrdiff_t>(decl_pos));
  for (std::size_t p = 0; p < parts; ++p) {
    const std::int64_t lo = static_cast<std::int64_t>(p) * chunk;
    const std::int64_t size = std::min<std::int64_t>(chunk, n - lo);
    if (size <= 0) break;
    prog.globals.insert(
        prog.globals.begin() + static_cast<std::ptrdiff_t>(decl_pos + p),
        make_array_decl(name + "_" + std::to_string(p), size));
  }
  return Status::ok_status();
}

// ------------------------------------------------------ localize_variable

Status localize_variable(Function& f, const std::string& name) {
  // Find the function-level scalar declaration.
  std::size_t decl_pos = SIZE_MAX;
  for (std::size_t i = 0; i < f.body.size(); ++i) {
    const Stmt& s = *f.body[i];
    if (s.kind == StmtKind::kDecl && s.name == name) {
      if (s.is_array || s.is_pointer)
        return make_error("localize_variable: '" + name +
                          "' is not a scalar");
      decl_pos = i;
      break;
    }
  }
  if (decl_pos == SIZE_MAX)
    return make_error("localize_variable: no function-level declaration "
                      "of '" + name + "'");

  // Every other top-level use must be a loop where the variable is written
  // before it is read (no value flows in or across iterations).
  std::vector<Stmt*> users;
  for (std::size_t i = 0; i < f.body.size(); ++i) {
    if (i == decl_pos) continue;
    Stmt& s = *f.body[i];
    const VarUse u = stmt_uses(s);
    if (!u.reads.count(name) && !u.writes.count(name)) continue;
    if (s.kind != StmtKind::kFor)
      return make_error("localize_variable: '" + name +
                        "' is used outside a loop");
    // First body statement touching the variable must be a plain write
    // whose right-hand side does not read it.
    bool write_first = false;
    for (const auto& bs : s.body) {
      const VarUse bu = stmt_uses(*bs);
      const bool reads = bu.reads.count(name) > 0;
      const bool writes = bu.writes.count(name) > 0;
      if (!reads && !writes) continue;
      write_first = writes && !reads &&
                    bs->kind == StmtKind::kAssign &&
                    bs->lhs->kind == ExprKind::kIdent;
      break;
    }
    if (!write_first)
      return make_error("localize_variable: '" + name +
                        "' may carry a value into the loop; cannot "
                        "localize safely");
    users.push_back(&s);
  }
  if (f.body[decl_pos]->expr)
    return make_error("localize_variable: declaration has an initializer "
                      "whose value might be used");

  // Do it: drop the outer decl, declare at the top of each using loop.
  f.body.erase(f.body.begin() + static_cast<std::ptrdiff_t>(decl_pos));
  for (Stmt* loop : users)
    loop->body.insert(loop->body.begin(), make_decl(name));
  return Status::ok_status();
}

// --------------------------------------------------------- insert_channel

Status insert_channel(Program& prog, Function& f, const std::string& name,
                      std::int64_t channel_id) {
  // Find the array declaration (global or function top-level).
  auto find_decl = [&]() -> std::pair<std::vector<StmtPtr>*, std::size_t> {
    for (std::size_t i = 0; i < prog.globals.size(); ++i)
      if (prog.globals[i]->name == name && prog.globals[i]->is_array)
        return {&prog.globals, i};
    for (std::size_t i = 0; i < f.body.size(); ++i)
      if (f.body[i]->kind == StmtKind::kDecl && f.body[i]->name == name &&
          f.body[i]->is_array)
        return {&f.body, i};
    return {nullptr, 0};
  };
  const auto [decl_vec, decl_pos] = find_decl();
  if (!decl_vec)
    return make_error("insert_channel: no array declaration '" + name +
                      "'");

  // Producer: the unique top-level loop writing name[...]; consumer: the
  // unique later loop reading it.
  Stmt* producer = nullptr;
  Stmt* consumer = nullptr;
  std::size_t producer_pos = 0;
  for (std::size_t i = 0; i < f.body.size(); ++i) {
    Stmt& s = *f.body[i];
    if (s.kind != StmtKind::kFor) {
      const VarUse u = stmt_uses(s);
      if (u.reads.count(name) || u.writes.count(name))
        return make_error("insert_channel: '" + name +
                          "' used outside a loop");
      continue;
    }
    const VarUse u = body_uses(s.body);
    const bool writes = u.writes.count(name) > 0;
    const bool reads = u.reads.count(name) > 0;
    if (writes && reads)
      return make_error("insert_channel: a loop both reads and writes '" +
                        name + "'");
    if (writes) {
      if (producer)
        return make_error("insert_channel: multiple producer loops");
      producer = &s;
      producer_pos = i;
    } else if (reads) {
      if (consumer)
        return make_error("insert_channel: multiple consumer loops");
      if (!producer || i < producer_pos)
        return make_error("insert_channel: consumer precedes producer");
      consumer = &s;
    }
  }
  if (!producer || !consumer)
    return make_error("insert_channel: need one producer and one consumer "
                      "loop for '" + name + "'");

  const auto pcl = canonical_loop(*producer);
  const auto ccl = canonical_loop(*consumer);
  if (!pcl || !ccl)
    return make_error("insert_channel: loops must be canonical");
  if (pcl->lower != ccl->lower || pcl->upper != ccl->upper)
    return make_error("insert_channel: producer and consumer ranges differ");
  if (!array_accessed_only_at(producer->body, name, pcl->var) ||
      !array_accessed_only_at(consumer->body, name, ccl->var))
    return make_error("insert_channel: '" + name +
                      "' must be accessed exactly at the loop variable");

  // Producer: exactly one `name[i] = rhs;` statement, and `name` must not
  // appear in the rhs (already excluded by the read/write split above).
  Stmt* write_stmt = nullptr;
  for (auto& bs : producer->body) {
    if (bs->kind == StmtKind::kAssign && bs->lhs->kind == ExprKind::kIndex &&
        bs->lhs->kids[0]->kind == ExprKind::kIdent &&
        bs->lhs->kids[0]->name == name) {
      if (write_stmt)
        return make_error("insert_channel: multiple writes per iteration");
      write_stmt = bs.get();
    }
  }
  if (!write_stmt)
    return make_error("insert_channel: producer write is not a top-level "
                      "statement of the loop body");

  // Transform the producer write into a send.
  {
    std::vector<ExprPtr> args;
    args.push_back(make_int(channel_id));
    args.push_back(std::move(write_stmt->expr));
    write_stmt->kind = StmtKind::kExprStmt;
    write_stmt->lhs.reset();
    write_stmt->expr = make_call("chan_send", std::move(args));
  }

  // Transform the consumer: one recv into a temp, all reads become the
  // temp.
  const std::string temp = "__" + name + "_tok";
  consumer->body.insert(
      consumer->body.begin(),
      make_decl(temp, make_call("chan_recv", [&] {
                  std::vector<ExprPtr> a;
                  a.push_back(make_int(channel_id));
                  return a;
                }())));
  rewrite_stmt_exprs(
      *consumer,
      [&](const Expr& e) {
        return e.kind == ExprKind::kIndex &&
               e.kids[0]->kind == ExprKind::kIdent &&
               e.kids[0]->name == name;
      },
      [&](const Expr&) { return make_ident(temp); });

  // Drop the array.
  decl_vec->erase(decl_vec->begin() +
                  static_cast<std::ptrdiff_t>(decl_pos));
  return Status::ok_status();
}

// ------------------------------------------------------- pointer_to_index

Status pointer_to_index(Function& f) {
  // Collect rewritable pointers: declared with init `&arr[expr]` or `arr`,
  // never reassigned, never address-taken, never passed to a call. A
  // for-loop's init declaration is no candidate: erase_decls below cannot
  // remove it. (Pre-order visits a loop's init right after the loop.)
  struct PtrInfo {
    std::string base;
    ExprPtr offset;  // may be null (offset 0)
  };
  std::map<std::string, PtrInfo> ptrs;
  const Stmt* for_init = nullptr;
  for_each_stmt(f.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::kFor) for_init = s.init.get();
    if (&s == for_init || s.kind != StmtKind::kDecl || !s.is_pointer ||
        !s.expr)
      return;
    const Expr& init = *s.expr;
    if (init.kind == ExprKind::kAddrOf &&
        init.kids[0]->kind == ExprKind::kIndex &&
        init.kids[0]->kids[0]->kind == ExprKind::kIdent) {
      ptrs[s.name] = PtrInfo{init.kids[0]->kids[0]->name,
                             init.kids[0]->kids[1]->clone()};
    } else if (init.kind == ExprKind::kIdent) {
      ptrs[s.name] = PtrInfo{init.name, nullptr};
    }
  });

  if (ptrs.empty()) {
    if (uses_pointers(f))
      return make_error("pointer_to_index: pointers present but none match "
                        "the recodable pattern (int *p = &a[c] / = a)");
    return Status::ok_status();  // nothing to do
  }

  // Reject pointers that are reassigned, address-taken or escape.
  std::set<std::string> bad;
  for_each_stmt(f.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::kAssign && s.lhs->kind == ExprKind::kIdent &&
        ptrs.count(s.lhs->name))
      bad.insert(s.lhs->name);
    for_each_expr(s, [&](const Expr& e) {
      if (e.kind == ExprKind::kAddrOf &&
          e.kids[0]->kind == ExprKind::kIdent && ptrs.count(e.kids[0]->name))
        bad.insert(e.kids[0]->name);
      if (e.kind == ExprKind::kCall)
        for (const auto& a : e.kids)
          if (a->kind == ExprKind::kIdent && ptrs.count(a->name))
            bad.insert(a->name);
    });
  });
  for (const auto& b : bad) ptrs.erase(b);
  if (ptrs.empty())
    return make_error("pointer_to_index: every candidate pointer is "
                      "reassigned or escapes; designer must recode "
                      "manually");

  auto base_index = [&](const PtrInfo& info, ExprPtr extra) -> ExprPtr {
    ExprPtr off = info.offset ? info.offset->clone() : nullptr;
    // A literal zero offset contributes nothing; dropping it keeps the
    // rewritten index in the canonical a[i] shape other transformations
    // (split_vector, split_loop) recognize.
    if (off && off->kind == ExprKind::kIntLit && off->value == 0)
      off = nullptr;
    if (extra && extra->kind == ExprKind::kIntLit && extra->value == 0)
      extra = nullptr;
    ExprPtr idx;
    if (off && extra) {
      idx = make_binary("+", std::move(off), std::move(extra));
    } else if (off) {
      idx = std::move(off);
    } else if (extra) {
      idx = std::move(extra);
    } else {
      idx = make_int(0);
    }
    return make_index(make_ident(info.base), std::move(idx));
  };

  // Rewrite all uses: *(p), *(p+e), *(p-e), p[e].
  auto match = [&](const Expr& e) {
    if (e.kind == ExprKind::kDeref) {
      const Expr& t = *e.kids[0];
      if (t.kind == ExprKind::kIdent && ptrs.count(t.name)) return true;
      if (t.kind == ExprKind::kBinary && (t.op == "+" || t.op == "-") &&
          t.kids[0]->kind == ExprKind::kIdent &&
          ptrs.count(t.kids[0]->name))
        return true;
      return false;
    }
    if (e.kind == ExprKind::kIndex && e.kids[0]->kind == ExprKind::kIdent &&
        ptrs.count(e.kids[0]->name))
      return true;
    return false;
  };
  auto build = [&](const Expr& e) -> ExprPtr {
    if (e.kind == ExprKind::kDeref) {
      const Expr& t = *e.kids[0];
      if (t.kind == ExprKind::kIdent)
        return base_index(ptrs.at(t.name), nullptr);
      ExprPtr extra = t.kids[1]->clone();
      if (t.op == "-") extra = make_unary("-", std::move(extra));
      return base_index(ptrs.at(t.kids[0]->name), std::move(extra));
    }
    return base_index(ptrs.at(e.kids[0]->name), e.kids[1]->clone());
  };
  for (auto& s : f.body) rewrite_stmt_exprs(*s, match, build);

  // Remove the now-dead pointer declarations (walk again, erase by name).
  std::function<void(std::vector<StmtPtr>&)> erase_decls =
      [&](std::vector<StmtPtr>& body) {
        for (std::size_t i = 0; i < body.size();) {
          Stmt& s = *body[i];
          if (s.kind == StmtKind::kDecl && s.is_pointer &&
              ptrs.count(s.name)) {
            body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
            continue;
          }
          erase_decls(s.body);
          erase_decls(s.orelse);
          ++i;
        }
      };
  erase_decls(f.body);
  return Status::ok_status();
}

// ---------------------------------------------------------- prune_control

namespace {

bool expr_has_call(const Expr& e) {
  if (e.kind == ExprKind::kCall) return true;
  for (const auto& k : e.kids)
    if (expr_has_call(*k)) return true;
  return false;
}

/// Fold constant subexpressions bottom-up with the interpreter's integer
/// semantics; what the interpreter would reject (x / 0) stays unfolded.
void fold_expr(ExprPtr& e) {
  for (auto& k : e->kids) fold_expr(k);
  auto literal = [&](std::size_t i) {
    return e->kids[i]->kind == ExprKind::kIntLit;
  };
  std::optional<std::int64_t> v;
  if (e->kind == ExprKind::kBinary && literal(0) && literal(1))
    v = apply_binary(e->op, e->kids[0]->value, e->kids[1]->value);
  else if (e->kind == ExprKind::kUnary && literal(0))
    v = apply_unary(e->op, e->kids[0]->value);
  if (v) e = make_int(*v);
}

void prune_body(std::vector<StmtPtr>& body) {
  for (std::size_t i = 0; i < body.size();) {
    Stmt& s = *body[i];
    if (s.expr) fold_expr(s.expr);
    if (s.lhs) fold_expr(s.lhs);
    prune_body(s.body);
    prune_body(s.orelse);
    if (s.init && s.init->expr) fold_expr(s.init->expr);
    if (s.step && s.step->expr) fold_expr(s.step->expr);

    if (s.kind == StmtKind::kIf && s.expr->kind == ExprKind::kIntLit) {
      // Constant condition: splice the live branch.
      std::vector<StmtPtr> live =
          s.expr->value != 0 ? std::move(s.body) : std::move(s.orelse);
      body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = 0; j < live.size(); ++j)
        body.insert(body.begin() + static_cast<std::ptrdiff_t>(i + j),
                    std::move(live[j]));
      continue;  // revisit position i
    }
    if (s.kind == StmtKind::kIf && s.body.empty() && s.orelse.empty() &&
        !expr_has_call(*s.expr)) {
      body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (s.kind == StmtKind::kWhile && s.expr->kind == ExprKind::kIntLit &&
        s.expr->value == 0) {
      body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (s.kind == StmtKind::kBlock) {
      // Flatten blocks that declare nothing (no scoping consequence).
      bool has_decl = false;
      for (const auto& c : s.body)
        if (c->kind == StmtKind::kDecl) has_decl = true;
      if (!has_decl) {
        std::vector<StmtPtr> inner = std::move(s.body);
        body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
        for (std::size_t j = 0; j < inner.size(); ++j)
          body.insert(body.begin() + static_cast<std::ptrdiff_t>(i + j),
                      std::move(inner[j]));
        continue;
      }
    }
    ++i;
  }
}

}  // namespace

Status prune_control(Function& f, std::size_t* removed) {
  const std::size_t before = count_nodes(f.body);
  prune_body(f.body);
  if (removed) {
    const std::size_t after = count_nodes(f.body);
    *removed = before > after ? before - after : 0;
  }
  return Status::ok_status();
}

// ----------------------------------------------------- outline_statements

Status outline_statements(Program& prog, Function& f, std::size_t from,
                          std::size_t to, const std::string& new_name) {
  if (from >= to || to > f.body.size())
    return make_error("outline_statements: bad range");
  if (prog.find_function(new_name))
    return make_error("outline_statements: function '" + new_name +
                      "' already exists");

  // Region analysis.
  std::vector<StmtPtr> region;
  VarUse use;
  std::set<std::string> region_decls;
  for (std::size_t i = from; i < to; ++i) {
    const Stmt& s = *f.body[i];
    const VarUse u = stmt_uses(s);
    use.reads.insert(u.reads.begin(), u.reads.end());
    use.writes.insert(u.writes.begin(), u.writes.end());
    for_each_stmt(s, [&](const Stmt& d) {
      if (d.kind == StmtKind::kDecl) region_decls.insert(d.name);
    });
  }

  std::set<std::string> globals;
  for (const auto& g : prog.globals) globals.insert(g->name);

  // Kind lookup for names declared before the region / as parameters.
  auto classify = [&](const std::string& name)
      -> std::optional<Param> {
    for (const auto& p : f.params)
      if (p.name == name) return p;
    for (std::size_t i = 0; i < from; ++i) {
      const Stmt& s = *f.body[i];
      if (s.kind == StmtKind::kDecl && s.name == name) {
        Param p;
        p.name = name;
        p.is_array = s.is_array;
        p.is_pointer = s.is_pointer;
        return p;
      }
    }
    return std::nullopt;
  };

  std::vector<Param> params;
  for (const auto& name : use.reads) {
    if (region_decls.count(name) || globals.count(name)) continue;
    if (prog.find_function(name)) continue;  // function name in a call
    const auto p = classify(name);
    if (!p)
      return make_error("outline_statements: cannot classify '" + name +
                        "' (declared after the region?)");
    params.push_back(*p);
  }
  // Written non-local scalars cannot be outlined (no out-params in mini-C).
  for (const auto& name : use.writes) {
    if (region_decls.count(name) || globals.count(name)) continue;
    const auto p = classify(name);
    if (p && !p->is_array && !p->is_pointer)
      return make_error("outline_statements: region writes scalar '" + name +
                        "' living outside it; localize it first");
    if (p && std::none_of(params.begin(), params.end(),
                          [&](const Param& q) { return q.name == name; }))
      params.push_back(*p);
  }
  std::sort(params.begin(), params.end(),
            [](const Param& a, const Param& b) { return a.name < b.name; });

  // Build the new function.
  Function out;
  out.name = new_name;
  out.returns_value = false;
  out.params = params;
  for (std::size_t i = from; i < to; ++i)
    out.body.push_back(std::move(f.body[i]));
  f.body.erase(f.body.begin() + static_cast<std::ptrdiff_t>(from),
               f.body.begin() + static_cast<std::ptrdiff_t>(to));

  std::vector<ExprPtr> args;
  for (const auto& p : params) args.push_back(make_ident(p.name));
  f.body.insert(f.body.begin() + static_cast<std::ptrdiff_t>(from),
                make_expr_stmt(make_call(new_name, std::move(args))));
  prog.functions.push_back(std::move(out));
  return Status::ok_status();
}

// -------------------------------------------------------- distribute_loop

Status distribute_loop(Function& f, std::size_t loop_index) {
  const auto loops = top_level_loops(f);
  if (loop_index >= loops.size())
    return make_error("distribute_loop: no such loop");
  const std::size_t pos = loops[loop_index];
  Stmt& loop = *f.body[pos];
  const auto cl = canonical_loop(loop);
  if (!cl) return make_error("distribute_loop: loop is not canonical");

  // Body must be declarations (all leading) followed by assignments, so
  // that hoisting the declaration initializers ahead of the assignments
  // preserves order.
  std::vector<const Stmt*> decls;
  std::vector<const Stmt*> assigns;
  for (const auto& bs : loop.body) {
    if (bs->kind == StmtKind::kDecl && !bs->is_array && !bs->is_pointer) {
      if (!assigns.empty())
        return make_error("distribute_loop: declarations must precede all "
                          "assignments in the loop body");
      decls.push_back(bs.get());
    } else if (bs->kind == StmtKind::kAssign) {
      assigns.push_back(bs.get());
    } else {
      return make_error("distribute_loop: body must contain only scalar "
                        "declarations and assignments");
    }
  }
  if (assigns.size() < 2)
    return make_error("distribute_loop: nothing to distribute");

  // No backward dependences: a statement may only read names written by
  // earlier statements (or loop-local scalars after their write).
  std::set<std::string> local;
  for (const auto* d : decls) local.insert(d->name);
  std::set<std::string> written_so_far;
  // Declaration initializers run (as hoisted stages) before every assign.
  for (const auto* d : decls)
    if (d->expr) written_so_far.insert(d->name);
  for (const auto* a : assigns) {
    const VarUse u = stmt_uses(*a);
    for (const auto& r : u.reads) {
      if (!local.count(r)) continue;
      if (!written_so_far.count(r))
        return make_error("distribute_loop: '" + r +
                          "' is read before it is written in the "
                          "iteration (loop-carried)");
    }
    for (const auto& w : u.writes) written_so_far.insert(w);
    // Arrays must be disciplined for legality of distribution.
    for (const auto& w : u.writes) {
      if (local.count(w)) continue;
      if (!array_accessed_only_at(loop.body, w, cl->var))
        return make_error("distribute_loop: array '" + w +
                          "' indexed beyond the loop variable");
    }
  }

  const std::int64_t n = cl->upper - cl->lower;

  // Scalar expansion: each loop-local scalar becomes an array indexed by
  // the (shifted) loop variable.
  std::vector<StmtPtr> expansion_decls;
  for (const auto* d : decls) {
    const std::string arr = d->name + "_x";
    expansion_decls.push_back(make_array_decl(arr, n));
  }

  auto expand = [&](StmtPtr stmt) {
    for (const auto* d : decls) {
      const std::string scalar = d->name;
      const std::string arr = scalar + "_x";
      rewrite_stmt_exprs(
          *stmt,
          [&](const Expr& e) {
            return e.kind == ExprKind::kIdent && e.name == scalar;
          },
          [&](const Expr&) {
            return make_index(make_ident(arr),
                              make_loop_index(cl->var, cl->lower));
          });
      if (stmt->lhs && stmt->lhs->kind == ExprKind::kIdent &&
          stmt->lhs->name == scalar)
        stmt->lhs = make_index(make_ident(arr),
                               make_loop_index(cl->var, cl->lower));
    }
    return stmt;
  };

  // Handle declaration initializers: they become the first assignments.
  std::vector<StmtPtr> stage_stmts;
  for (const auto* d : decls) {
    if (!d->expr) continue;
    stage_stmts.push_back(expand(
        make_assign(make_ident(d->name), d->expr->clone())));
  }
  for (const auto* a : assigns) stage_stmts.push_back(expand(a->clone()));

  // Build the distributed loops.
  std::vector<StmtPtr> replacement = std::move(expansion_decls);
  for (auto& st : stage_stmts) {
    std::vector<StmtPtr> body;
    body.push_back(std::move(st));
    replacement.push_back(
        make_canonical_for(cl->var, cl->lower, cl->upper, std::move(body)));
  }

  f.body.erase(f.body.begin() + static_cast<std::ptrdiff_t>(pos));
  for (std::size_t i = 0; i < replacement.size(); ++i)
    f.body.insert(f.body.begin() + static_cast<std::ptrdiff_t>(pos + i),
                  std::move(replacement[i]));
  return Status::ok_status();
}

// --------------------------------------------------------- rename_variable

Status rename_variable(Program& prog, Function& f,
                       const std::string& old_name,
                       const std::string& new_name) {
  if (old_name == new_name)
    return make_error("rename_variable: names are identical");
  for (const auto& g : prog.globals)
    if (g->name == new_name)
      return make_error("rename_variable: '" + new_name +
                        "' is a global");
  const VarUse all = body_uses(f.body);
  if (all.reads.count(new_name) || all.writes.count(new_name))
    return make_error("rename_variable: '" + new_name +
                      "' already in use in '" + f.name + "'");
  for (const auto& p : f.params)
    if (p.name == new_name)
      return make_error("rename_variable: '" + new_name +
                        "' is a parameter");
  if (!all.reads.count(old_name) && !all.writes.count(old_name))
    return make_error("rename_variable: no variable '" + old_name + "'");

  for (auto& p : f.params)
    if (p.name == old_name) p.name = new_name;
  for_each_stmt(f.body, [&](Stmt& s) {
    if (s.kind == StmtKind::kDecl && s.name == old_name) s.name = new_name;
  });
  for (auto& s : f.body)
    rewrite_stmt_exprs(
        *s,
        [&](const Expr& e) {
          return e.kind == ExprKind::kIdent && e.name == old_name;
        },
        [&](const Expr&) { return make_ident(new_name); });
  return Status::ok_status();
}

// -------------------------------------------------------------- unroll_loop

Status unroll_loop(Function& f, std::size_t loop_index,
                   std::int64_t max_trips) {
  const auto loops = top_level_loops(f);
  if (loop_index >= loops.size())
    return make_error("unroll_loop: no such loop");
  const std::size_t pos = loops[loop_index];
  Stmt& loop = *f.body[pos];
  const auto cl = canonical_loop(loop);
  if (!cl) return make_error("unroll_loop: loop is not canonical");
  const std::int64_t trips = cl->upper - cl->lower;
  if (trips <= 0) {
    f.body.erase(f.body.begin() + static_cast<std::ptrdiff_t>(pos));
    return Status::ok_status();  // zero-trip loop: just delete it
  }
  if (trips > max_trips)
    return make_error("unroll_loop: " + std::to_string(trips) +
                      " iterations exceed the limit of " +
                      std::to_string(max_trips));
  // Bodies declaring locals would collide when replicated; wrap each copy
  // in a block so scoping stays correct.
  std::vector<StmtPtr> replacement;
  for (std::int64_t i = cl->lower; i < cl->upper; ++i) {
    std::vector<StmtPtr> copy = clone_body(loop.body);
    for (auto& st : copy) {
      rewrite_stmt_exprs(
          *st,
          [&](const Expr& e) {
            return e.kind == ExprKind::kIdent && e.name == cl->var;
          },
          [&](const Expr&) { return make_int(i); });
    }
    bool has_decl = false;
    for (const auto& st : copy)
      if (st->kind == StmtKind::kDecl) has_decl = true;
    if (has_decl) {
      replacement.push_back(make_block(std::move(copy)));
    } else {
      for (auto& st : copy) replacement.push_back(std::move(st));
    }
  }
  f.body.erase(f.body.begin() + static_cast<std::ptrdiff_t>(pos));
  for (std::size_t i = 0; i < replacement.size(); ++i)
    f.body.insert(f.body.begin() + static_cast<std::ptrdiff_t>(pos + i),
                  std::move(replacement[i]));
  return Status::ok_status();
}

// -------------------------------------------------------------- fuse_loops

Status fuse_loops(Function& f, std::size_t first_loop_index) {
  const auto loops = top_level_loops(f);
  if (first_loop_index + 1 >= loops.size())
    return make_error("fuse_loops: need two consecutive loops");
  const std::size_t pos1 = loops[first_loop_index];
  const std::size_t pos2 = loops[first_loop_index + 1];
  if (pos2 != pos1 + 1)
    return make_error("fuse_loops: loops are not lexically adjacent");

  Stmt& l1 = *f.body[pos1];
  Stmt& l2 = *f.body[pos2];
  const auto c1 = canonical_loop(l1);
  const auto c2 = canonical_loop(l2);
  if (!c1 || !c2)
    return make_error("fuse_loops: both loops must be canonical");
  if (c1->lower != c2->lower || c1->upper != c2->upper)
    return make_error("fuse_loops: ranges differ ([" +
                      std::to_string(c1->lower) + "," +
                      std::to_string(c1->upper) + ") vs [" +
                      std::to_string(c2->lower) + "," +
                      std::to_string(c2->upper) + "))");

  // Every array either loop touches must be indexed exactly at its loop
  // variable; then fusing preserves the value each iteration of loop 2
  // observes (loop 1's iteration i completes before it).
  const VarUse u1 = body_uses(l1.body);
  const VarUse u2 = body_uses(l2.body);
  std::set<std::string> locals1, locals2;
  for (const auto& s : l1.body)
    if (s->kind == StmtKind::kDecl) locals1.insert(s->name);
  for (const auto& s : l2.body)
    if (s->kind == StmtKind::kDecl) locals2.insert(s->name);

  auto check_arrays = [&](const Stmt& loop, const VarUse& u,
                          const std::set<std::string>& locals,
                          const std::string& var) -> Status {
    std::set<std::string> names;
    names.insert(u.reads.begin(), u.reads.end());
    names.insert(u.writes.begin(), u.writes.end());
    for (const auto& n : names) {
      if (n == var || locals.count(n)) continue;
      // Names read-only in both loops cannot carry a reordering hazard.
      if (!u1.writes.count(n) && !u2.writes.count(n)) continue;
      // Otherwise fusion is only safe when the *other* loop also touches
      // the name and every access is index-disciplined (arrays at the
      // loop variable); anything else is conservatively refused.
      const bool other_touches = (&loop == &l1)
                                     ? (u2.reads.count(n) ||
                                        u2.writes.count(n))
                                     : (u1.reads.count(n) ||
                                        u1.writes.count(n));
      if (!other_touches) continue;
      if (!array_accessed_only_at(loop.body, n, var))
        return make_error("fuse_loops: '" + n +
                          "' is not accessed exactly at the loop variable");
    }
    return Status::ok_status();
  };
  if (auto s = check_arrays(l1, u1, locals1, c1->var); !s.ok()) return s;
  if (auto s = check_arrays(l2, u2, locals2, c2->var); !s.ok()) return s;

  // Local-name collisions are resolved by the second loop shadowing; to
  // stay conservative, refuse when both declare the same local.
  for (const auto& n : locals2)
    if (locals1.count(n))
      return make_error("fuse_loops: both loops declare local '" + n +
                        "'; rename first");

  // Rename loop 2's induction variable to loop 1's and splice bodies.
  std::vector<StmtPtr> body2 = std::move(l2.body);
  if (c2->var != c1->var) {
    for (auto& st : body2) {
      rewrite_stmt_exprs(
          *st,
          [&](const Expr& e) {
            return e.kind == ExprKind::kIdent && e.name == c2->var;
          },
          [&](const Expr&) { return make_ident(c1->var); });
      if (st->lhs && st->lhs->kind == ExprKind::kIdent &&
          st->lhs->name == c2->var)
        st->lhs = make_ident(c1->var);
    }
  }
  for (auto& st : body2) l1.body.push_back(std::move(st));
  f.body.erase(f.body.begin() + static_cast<std::ptrdiff_t>(pos2));
  return Status::ok_status();
}

}  // namespace rw::recoder
