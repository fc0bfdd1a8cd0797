// Static analyses backing the recoder's transformations.
//
// Sec. VI: the recoder is "an intelligent union of editor, compiler, and
// transformation and analysis tools" whose results the designer can
// "concur, augment or overrule". These analyses are deliberately
// conservative: when a pattern is not provably safe the transformation
// refuses and reports why, and the designer decides.
#pragma once

#include <optional>
#include <set>
#include <string>

#include "recoder/ast.hpp"

namespace rw::recoder {

/// Variables read / written by a statement tree (arrays count as whole
/// objects; reads through pointers count the pointer name).
struct VarUse {
  std::set<std::string> reads;
  std::set<std::string> writes;
};
VarUse stmt_uses(const Stmt& s);
VarUse body_uses(const std::vector<StmtPtr>& body);

/// Canonical loop shape: for (i = <lo>; i < <hi>; i = i + 1) with literal
/// bounds. Most recoding transformations require it.
struct CanonicalLoop {
  std::string var;
  std::int64_t lower = 0;
  std::int64_t upper = 0;  // exclusive
};
std::optional<CanonicalLoop> canonical_loop(const Stmt& for_stmt);

/// True when every access to array `name` inside `body` is exactly
/// `name[<loop_var>]` (the pattern data-parallel loop splitting needs).
bool array_accessed_only_at(const std::vector<StmtPtr>& body,
                            const std::string& name,
                            const std::string& loop_var);

/// True when the loop body carries no dependence between iterations:
/// every array indexed only at the loop variable, every scalar written in
/// the body also declared in the body (loop-local).
bool loop_is_data_parallel(const Stmt& for_stmt);

/// Names of pointer-typed declarations in the function.
std::set<std::string> pointer_variables(const Function& f);

/// Does the function use any pointer expression (deref/addr-of/pointer
/// decl)? Drives the "analyzability" metric.
bool uses_pointers(const Function& f);

/// Count AST nodes (statements + expressions) of a body — the size metric
/// used for effort accounting.
std::size_t count_nodes(const std::vector<StmtPtr>& body);

/// Line-level difference between two printed sources: lines added +
/// removed (a proxy for manual editing effort).
std::size_t line_diff(const std::string& before, const std::string& after);

}  // namespace rw::recoder
