#include "recoder/interp.hpp"

#include <deque>
#include <memory>
#include <stdexcept>
#include <variant>

namespace rw::recoder {
namespace {

using Array = std::shared_ptr<std::vector<std::int64_t>>;

struct Pointer {
  Array base;
  std::int64_t offset = 0;
};

using Value = std::variant<std::int64_t, Array, Pointer>;

struct InterpError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ReturnSignal {
  std::int64_t value;
};

class Interp {
 public:
  Interp(const Program& prog, std::uint64_t max_steps)
      : prog_(prog), budget_(max_steps) {}

  InterpResult run(const std::string& entry,
                   const std::vector<std::int64_t>& args) {
    // Globals live in the outermost scope.
    scopes_.emplace_back();
    for (const auto& g : prog_.globals) exec_decl(*g);

    const Function* f = prog_.find_function(entry);
    if (!f) throw InterpError("no function '" + entry + "'");
    std::vector<Value> argv;
    argv.reserve(args.size());
    for (const auto a : args) argv.emplace_back(a);

    InterpResult res;
    res.return_value = call(*f, std::move(argv));
    res.steps = steps_;
    for (const auto& g : prog_.globals) {
      const Value& v = scopes_.front().at(g->name);
      if (std::holds_alternative<Array>(v)) {
        res.globals[g->name] = *std::get<Array>(v);
      } else if (std::holds_alternative<std::int64_t>(v)) {
        res.globals[g->name] = {std::get<std::int64_t>(v)};
      }
    }
    return res;
  }

 private:
  void tick() {
    if (++steps_ > budget_)
      throw InterpError("step budget exhausted (infinite loop?)");
  }

  Value* lookup(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto f = it->find(name);
      if (f != it->end()) return &f->second;
    }
    return nullptr;
  }

  Value& require(const std::string& name) {
    Value* v = lookup(name);
    if (!v) throw InterpError("unknown identifier '" + name + "'");
    return *v;
  }

  std::int64_t as_int(const Value& v) {
    if (!std::holds_alternative<std::int64_t>(v))
      throw InterpError("expected scalar value");
    return std::get<std::int64_t>(v);
  }

  Array as_array(const Value& v) {
    if (std::holds_alternative<Array>(v)) return std::get<Array>(v);
    if (std::holds_alternative<Pointer>(v)) {
      const auto& p = std::get<Pointer>(v);
      if (p.offset != 0)
        throw InterpError("array use of offset pointer");
      return p.base;
    }
    throw InterpError("expected array value");
  }

  std::int64_t& element(const Array& a, std::int64_t idx) {
    if (!a) throw InterpError("null array");
    if (idx < 0 || idx >= static_cast<std::int64_t>(a->size()))
      throw InterpError("array index out of bounds: " +
                        std::to_string(idx));
    return (*a)[static_cast<std::size_t>(idx)];
  }

  // ---------------------------------------------------------- expressions

  Value eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return e.value;
      case ExprKind::kIdent:
        return require(e.name);
      case ExprKind::kBinary:
        return eval_binary(e);
      case ExprKind::kUnary: {
        if (const auto v = apply_unary(e.op, as_int(eval(*e.kids[0]))))
          return *v;
        throw InterpError("unknown unary op " + e.op);
      }
      case ExprKind::kIndex: {
        const Array a = as_array(eval(*e.kids[0]));
        return element(a, as_int(eval(*e.kids[1])));
      }
      case ExprKind::kDeref: {
        const Value v = eval(*e.kids[0]);
        if (!std::holds_alternative<Pointer>(v))
          throw InterpError("dereference of non-pointer");
        const auto& p = std::get<Pointer>(v);
        return element(p.base, p.offset);
      }
      case ExprKind::kAddrOf: {
        const Expr& target = *e.kids[0];
        if (target.kind == ExprKind::kIdent) {
          const Value& v = require(target.name);
          if (std::holds_alternative<Array>(v))
            return Pointer{std::get<Array>(v), 0};
          throw InterpError("& of non-array identifier");
        }
        if (target.kind == ExprKind::kIndex) {
          const Array a = as_array(eval(*target.kids[0]));
          return Pointer{a, as_int(eval(*target.kids[1]))};
        }
        throw InterpError("unsupported & target");
      }
      case ExprKind::kCall:
        return eval_call(e);
    }
    throw InterpError("bad expression");
  }

  Value eval_binary(const Expr& e) {
    // Pointer arithmetic: ptr +/- int.
    const Value lv = eval(*e.kids[0]);
    const Value rv = eval(*e.kids[1]);
    if (std::holds_alternative<Pointer>(lv) &&
        (e.op == "+" || e.op == "-")) {
      Pointer p = std::get<Pointer>(lv);
      p.offset = *apply_binary(e.op, p.offset, as_int(rv));
      return p;
    }
    if (std::holds_alternative<Array>(lv) && e.op == "+") {
      // array decays to pointer in `a + i`.
      return Pointer{std::get<Array>(lv), as_int(rv)};
    }
    if (const auto v = apply_binary(e.op, as_int(lv), as_int(rv))) return *v;
    if (e.op == "/") throw InterpError("division by zero");
    if (e.op == "%") throw InterpError("modulo by zero");
    throw InterpError("unknown binary op " + e.op);
  }

  Value eval_call(const Expr& e) {
    // Channel builtins (inserted by the channel transformation).
    if (e.name == "chan_send") {
      if (e.kids.size() != 2) throw InterpError("chan_send(ch, v)");
      const std::int64_t ch = as_int(eval(*e.kids[0]));
      channels_[ch].push_back(as_int(eval(*e.kids[1])));
      return std::int64_t{0};
    }
    if (e.name == "chan_recv") {
      if (e.kids.size() != 1) throw InterpError("chan_recv(ch)");
      const std::int64_t ch = as_int(eval(*e.kids[0]));
      auto& q = channels_[ch];
      if (q.empty())
        throw InterpError("chan_recv on empty channel " +
                          std::to_string(ch));
      const std::int64_t v = q.front();
      q.pop_front();
      return v;
    }
    if (e.name == "chan_size") {
      const std::int64_t ch = as_int(eval(*e.kids[0]));
      return static_cast<std::int64_t>(channels_[ch].size());
    }
    const Function* f = prog_.find_function(e.name);
    if (!f) throw InterpError("call to unknown function '" + e.name + "'");
    if (f->params.size() != e.kids.size())
      throw InterpError("arity mismatch calling '" + e.name + "'");
    std::vector<Value> argv;
    argv.reserve(e.kids.size());
    for (const auto& a : e.kids) argv.push_back(eval(*a));
    return call(*f, std::move(argv));
  }

  std::int64_t call(const Function& f, std::vector<Value> argv) {
    if (call_depth_ > 256) throw InterpError("call stack overflow");
    ++call_depth_;
    // A fresh scope; note: mini-C has no closures, but inner functions can
    // still see globals (scope 0). We emulate C scoping by keeping only
    // globals + the new frame visible.
    std::vector<std::map<std::string, Value>> saved;
    saved.assign(scopes_.begin() + 1, scopes_.end());
    scopes_.resize(1);
    scopes_.emplace_back();
    for (std::size_t i = 0; i < f.params.size(); ++i)
      scopes_.back()[f.params[i].name] = std::move(argv[i]);

    std::int64_t ret = 0;
    try {
      exec_body(f.body);
    } catch (const ReturnSignal& r) {
      ret = r.value;
    }
    scopes_.resize(1);
    for (auto& s : saved) scopes_.push_back(std::move(s));
    --call_depth_;
    return ret;
  }

  // ----------------------------------------------------------- statements

  // Zero-filling n cells is n units of work, so the cells of all live
  // arrays are bounded by the step budget too.
  Array allocate(const Stmt& s) {
    const auto cells = static_cast<std::uint64_t>(s.array_size);
    if (cells > budget_ - live_cells_)
      throw InterpError("array '" + s.name + "[" +
                        std::to_string(s.array_size) +
                        "]' exceeds the interpreter budget of " +
                        std::to_string(budget_) + " live cells");
    live_cells_ += cells;
    return Array(new std::vector<std::int64_t>(cells, 0),
                 [this](std::vector<std::int64_t>* v) {
                   live_cells_ -= v->size();
                   delete v;
                 });
  }

  void exec_decl(const Stmt& s) {
    if (s.is_array) {
      scopes_.back()[s.name] = allocate(s);
    } else if (s.is_pointer) {
      scopes_.back()[s.name] =
          s.expr ? eval(*s.expr) : Value{Pointer{nullptr, 0}};
    } else {
      scopes_.back()[s.name] = s.expr ? as_int(eval(*s.expr)) : 0;
    }
  }

  void assign_to(const Expr& lhs, Value v) {
    switch (lhs.kind) {
      case ExprKind::kIdent: {
        Value& slot = require(lhs.name);
        if (std::holds_alternative<std::int64_t>(slot)) {
          slot = as_int(v);
        } else {
          slot = std::move(v);  // pointer reassignment
        }
        return;
      }
      case ExprKind::kIndex: {
        const Array a = as_array(eval(*lhs.kids[0]));
        element(a, as_int(eval(*lhs.kids[1]))) = as_int(v);
        return;
      }
      case ExprKind::kDeref: {
        const Value pv = eval(*lhs.kids[0]);
        if (!std::holds_alternative<Pointer>(pv))
          throw InterpError("assignment through non-pointer");
        const auto& p = std::get<Pointer>(pv);
        element(p.base, p.offset) = as_int(v);
        return;
      }
      default:
        throw InterpError("bad assignment target");
    }
  }

  void exec(const Stmt& s) {
    tick();
    switch (s.kind) {
      case StmtKind::kDecl:
        exec_decl(s);
        return;
      case StmtKind::kAssign:
        assign_to(*s.lhs, eval(*s.expr));
        return;
      case StmtKind::kExprStmt:
        eval(*s.expr);
        return;
      case StmtKind::kIf:
        if (as_int(eval(*s.expr)) != 0) {
          exec_scoped(s.body);
        } else {
          exec_scoped(s.orelse);
        }
        return;
      case StmtKind::kFor: {
        scopes_.emplace_back();
        exec(*s.init);
        while (as_int(eval(*s.expr)) != 0) {
          exec_scoped(s.body);
          exec(*s.step);
          tick();
        }
        scopes_.pop_back();
        return;
      }
      case StmtKind::kWhile:
        while (as_int(eval(*s.expr)) != 0) {
          exec_scoped(s.body);
          tick();
        }
        return;
      case StmtKind::kReturn:
        throw ReturnSignal{s.expr ? as_int(eval(*s.expr)) : 0};
      case StmtKind::kBlock:
        exec_scoped(s.body);
        return;
    }
  }

  void exec_body(const std::vector<StmtPtr>& body) {
    for (const auto& st : body) exec(*st);
  }

  void exec_scoped(const std::vector<StmtPtr>& body) {
    scopes_.emplace_back();
    exec_body(body);
    scopes_.pop_back();
  }

  const Program& prog_;
  std::uint64_t budget_;
  std::uint64_t steps_ = 0;
  int call_depth_ = 0;
  std::uint64_t live_cells_ = 0;  // declared before the arrays that count it
  std::vector<std::map<std::string, Value>> scopes_;
  std::map<std::int64_t, std::deque<std::int64_t>> channels_;
};

}  // namespace

Result<InterpResult> interpret(const Program& prog, const std::string& entry,
                               const std::vector<std::int64_t>& args,
                               std::uint64_t max_steps) {
  try {
    Interp interp(prog, max_steps);
    return interp.run(entry, args);
  } catch (const InterpError& e) {
    return make_error(e.what());
  }
}

}  // namespace rw::recoder
