#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "recoder/analysis.hpp"
#include "recoder/interp.hpp"
#include "recoder/parser.hpp"
#include "recoder/printer.hpp"

namespace rw::recoder {
namespace {

TEST(Parser, ParsesMinimalFunction) {
  auto r = parse_program("int main() { return 42; }");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  ASSERT_EQ(r.value().functions.size(), 1u);
  EXPECT_EQ(r.value().functions[0].name, "main");
  EXPECT_TRUE(r.value().functions[0].returns_value);
}

TEST(Parser, ParsesGlobalsAndArrays) {
  auto r = parse_program(R"(
    int total;
    int data[16];
    int main() { return 0; }
  )");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  ASSERT_EQ(r.value().globals.size(), 2u);
  EXPECT_EQ(r.value().globals[1]->name, "data");
  EXPECT_TRUE(r.value().globals[1]->is_array);
  EXPECT_EQ(r.value().globals[1]->array_size, 16);
}

TEST(Parser, ParsesControlFlow) {
  auto r = parse_program(R"(
    int f(int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
      }
      while (s > 100) { s = s / 2; }
      return s;
    }
  )");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
}

TEST(Parser, ParsesPointersAndCalls) {
  auto r = parse_program(R"(
    int a[8];
    int get(int i) { return a[i]; }
    int main() {
      int *p = &a[2];
      *p = 5;
      *(p + 1) = 6;
      return get(2) + get(3);
    }
  )");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
}

/// Parse `expr` as the return value of main.
Result<ExprPtr> parse_expression(const std::string& expr) {
  auto p = parse_program("int main() { return " + expr + "; }");
  if (!p.ok()) return p.error();
  return std::move(p.value().functions[0].body[0]->expr);
}

TEST(Parser, OperatorPrecedence) {
  auto e = parse_expression("1 + 2 * 3 == 7 && 4 < 5");
  ASSERT_TRUE(e.ok());
  // Top node should be &&.
  EXPECT_EQ(e.value()->op, "&&");
  EXPECT_EQ(e.value()->kids[0]->op, "==");
}

TEST(Parser, CommentsIgnored) {
  auto r = parse_program(R"(
    // line comment
    int main() { /* block
      comment */ return 1; }
  )");
  ASSERT_TRUE(r.ok());
}

TEST(Parser, ErrorsCarryLocation) {
  auto r = parse_program("int main() {\n  return @;\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().line, 2);
}

TEST(Parser, RejectsBrokenInput) {
  EXPECT_FALSE(parse_program("int main() {").ok());
  EXPECT_FALSE(parse_program("float x;").ok());
  EXPECT_FALSE(parse_program("int main() { 1 = 2; }").ok());
  EXPECT_FALSE(parse_program("int a[x];").ok());  // non-literal size
}

std::string repeated(std::string_view s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// `depth` nested blocks inside main's body.
std::string nested_blocks(int depth) {
  std::string src = "int main() { ";
  src += repeated("{ ", depth);
  src += "return 0; ";
  src += repeated("} ", depth);
  src += "}";
  return src;
}

// A return expression wrapped in `depth` parentheses.
std::string nested_parens(int depth) {
  std::string src = "int main() { return ";
  src += repeated("(", depth);
  src += "1";
  src += repeated(")", depth);
  src += "; }";
  return src;
}

TEST(Parser, RejectsHostileNestingWithTypedError) {
  // 100k levels used to overflow the stack; now a typed error.
  for (const std::string& src :
       {nested_blocks(100'000), nested_parens(100'000)}) {
    auto r = parse_program(src);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("nesting too deep"), std::string::npos)
        << r.error().to_string();
  }
  std::string negations = repeated("-", 100'000);
  negations += "1";
  auto e = parse_expression(negations);
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error().message.find("nesting too deep"), std::string::npos);
}

TEST(Parser, ParsesDeepButBoundedNesting) {
  auto blocks = parse_program(nested_blocks(200));
  ASSERT_TRUE(blocks.ok()) << blocks.error().to_string();
  auto parens = parse_program(nested_parens(200));
  ASSERT_TRUE(parens.ok()) << parens.error().to_string();
  auto r = interpret(parens.value());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().return_value, 1);
}

// `x = 1+1+...+1` with `terms` terms: a left-deep chain of binary operators.
std::string operator_chain(int terms) {
  std::string src = "int main() { int x = 0; x = 1";
  src += repeated("+1", terms - 1);
  src += "; return x; }";
  return src;
}

TEST(Parser, RejectsHostileOperatorChainWithTypedError) {
  // 100k terms used to parse into a tree the printer overflowed the stack on.
  auto r = parse_program(operator_chain(100'000));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nesting too deep"), std::string::npos)
      << r.error().to_string();
}

TEST(Parser, BoundedOperatorChainRoundTrips) {
  auto p1 = parse_program(operator_chain(200));
  ASSERT_TRUE(p1.ok()) << p1.error().to_string();
  auto r = interpret(p1.value());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().return_value, 200);
  const std::string text1 = print_program(p1.value());
  auto p2 = parse_program(text1);
  ASSERT_TRUE(p2.ok()) << p2.error().to_string();
  EXPECT_EQ(print_program(p2.value()), text1);
}

TEST(Parser, BoundsTheHeightOfNestedOperatorChains) {
  // Every level's chain fits the bound on its own; the tree they build
  // together (150 terms per chain, 100 chains deep) does not.
  const std::string chain = repeated("+1", 149);
  std::string e = "1" + chain;
  for (int level = 1; level < 100; ++level) e = "(" + e + ")" + chain;
  auto r = parse_program("int main() { return " + e + "; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nesting too deep"), std::string::npos)
      << r.error().to_string();
  // Two levels of 100-term chains make a tree 199 tall, inside the bound.
  const std::string shorter = repeated("+1", 99);
  auto ok = parse_program("int main() { return (1" + shorter + ")" +
                          shorter + "; }");
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
}

TEST(Parser, RejectsOutOfRangeLiteralWithLocation) {
  auto r = parse_program("int main() {\n  return 99999999999999999999;\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("integer literal out of range"),
            std::string::npos)
      << r.error().to_string();
  EXPECT_EQ(r.error().line, 2);
  EXPECT_EQ(r.error().column, 10);
  EXPECT_FALSE(parse_program("int a[9223372036854775808];").ok());
  auto max = parse_expression("9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.error().to_string();
  EXPECT_EQ(max.value()->value, INT64_MAX);
}

TEST(Printer, SpellsInt64MinSoItParsesBack) {
  const auto e = make_binary("*", make_int(INT64_MIN), make_int(2));
  const std::string text = print_expr(*e);
  EXPECT_EQ(text, "(-9223372036854775807 - 1) * 2");
  auto back = parse_program("int main() { return " + text + "; }");
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  auto r = interpret(back.value());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().return_value, 0);  // 2 * INT64_MIN wraps to 0
}

TEST(Printer, RoundTripsPrograms) {
  const char* src = R"(
    int buf[4];
    int add(int a, int b) { return a + b; }
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) {
        buf[i] = add(i, 2 * i);
        s = s + buf[i];
      }
      if (s > 10) { s = s - 10; }
      return s;
    }
  )";
  auto p1 = parse_program(src);
  ASSERT_TRUE(p1.ok());
  const std::string text1 = print_program(p1.value());
  auto p2 = parse_program(text1);
  ASSERT_TRUE(p2.ok()) << p2.error().to_string() << "\n" << text1;
  EXPECT_EQ(print_program(p2.value()), text1);  // printing is a fixpoint
}

TEST(Printer, ParenthesizesCorrectly) {
  auto e = parse_expression("(1 + 2) * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(print_expr(*e.value()), "(1 + 2) * 3");
  auto e2 = parse_expression("1 + 2 * 3");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(print_expr(*e2.value()), "1 + 2 * 3");
}

TEST(Interp, Arithmetic) {
  auto p = parse_program("int main() { return (3 + 4) * 2 - 10 / 5; }");
  ASSERT_TRUE(p.ok());
  auto r = interpret(p.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 12);
}

TEST(Interp, LoopsAndArrays) {
  auto p = parse_program(R"(
    int out[5];
    int main() {
      for (int i = 0; i < 5; i = i + 1) { out[i] = i * i; }
      return out[4];
    })");
  ASSERT_TRUE(p.ok());
  auto r = interpret(p.value());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().return_value, 16);
  EXPECT_EQ(r.value().globals.at("out"),
            (std::vector<std::int64_t>{0, 1, 4, 9, 16}));
}

TEST(Interp, FunctionsAndRecursion) {
  auto p = parse_program(R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main() { return fib(10); })");
  ASSERT_TRUE(p.ok());
  auto r = interpret(p.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 55);
}

TEST(Interp, ArrayParamsByReference) {
  auto p = parse_program(R"(
    void fill(int v[], int n) {
      for (int i = 0; i < n; i = i + 1) { v[i] = 7; }
    }
    int data[3];
    int main() { fill(data, 3); return data[2]; })");
  ASSERT_TRUE(p.ok());
  auto r = interpret(p.value());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().return_value, 7);
}

TEST(Interp, PointerSemantics) {
  auto p = parse_program(R"(
    int a[4];
    int main() {
      int *p = &a[1];
      *p = 10;
      *(p + 2) = 30;
      return a[1] + a[3];
    })");
  ASSERT_TRUE(p.ok());
  auto r = interpret(p.value());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().return_value, 40);
}

TEST(Interp, ChannelBuiltins) {
  auto p = parse_program(R"(
    int main() {
      chan_send(1, 11);
      chan_send(1, 22);
      int a = chan_recv(1);
      int b = chan_recv(1);
      return a * 100 + b;
    })");
  ASSERT_TRUE(p.ok());
  auto r = interpret(p.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 1122);
}

TEST(Interp, RuntimeErrors) {
  auto oob = parse_program("int a[2]; int main() { return a[5]; }");
  ASSERT_TRUE(oob.ok());
  EXPECT_FALSE(interpret(oob.value()).ok());

  auto div0 = parse_program("int main() { return 1 / 0; }");
  ASSERT_TRUE(div0.ok());
  EXPECT_FALSE(interpret(div0.value()).ok());

  auto inf = parse_program("int main() { while (1) { } return 0; }");
  ASSERT_TRUE(inf.ok());
  EXPECT_FALSE(interpret(inf.value(), "main", {}, 1000).ok());

  auto empty_recv = parse_program("int main() { return chan_recv(0); }");
  ASSERT_TRUE(empty_recv.ok());
  EXPECT_FALSE(interpret(empty_recv.value()).ok());
}

TEST(Interp, BoundsLiveArrayCellsByTheStepBudget) {
  for (const char* size : {"9223372036854775807", "1000000000"}) {
    SCOPED_TRACE(size);
    auto huge = parse_program(std::string("int big[") + size +
                              "];\nint main() { return 0; }");
    ASSERT_TRUE(huge.ok()) << huge.error().to_string();
    const auto r = interpret(huge.value());
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("array 'big["), std::string::npos)
        << r.error().message;
  }
  auto normal = parse_program(
      "int main() { int a[16]; a[3] = 5; return a[3]; }");
  ASSERT_TRUE(normal.ok());
  const auto ok = interpret(normal.value());
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value().return_value, 5);
  EXPECT_EQ(ok.value().steps, 3u);  // cells are not steps
  // Cells of arrays that went out of scope are free again: 100 x 200k
  // cells in turn fit a budget of 10M, all at once they would not.
  auto loop = parse_program(
      "int main() { for (int i = 0; i < 100; i = i + 1) { int t[200000]; }"
      " return 1; }");
  ASSERT_TRUE(loop.ok());
  const auto looped = interpret(loop.value());
  ASSERT_TRUE(looped.ok()) << looped.error().to_string();
  EXPECT_EQ(looped.value().return_value, 1);
}

TEST(Interp, MainArguments) {
  auto p = parse_program("int main(int x, int y) { return x * y; }");
  ASSERT_TRUE(p.ok());
  auto r = interpret(p.value(), "main", {6, 7});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 42);
}

// ---------------------------------------------------------- language rules

TEST(LanguageRules, PrecedenceCoversExactlyTheBinaryOperators) {
  EXPECT_EQ(binary_precedence("||"), 1);
  EXPECT_EQ(binary_precedence("&&"), 2);
  EXPECT_EQ(binary_precedence("!="), 3);
  EXPECT_EQ(binary_precedence(">="), 4);
  EXPECT_EQ(binary_precedence("-"), 5);
  EXPECT_EQ(binary_precedence("%"), 6);
  for (const char* op : {"!", "=", "&", "[", "", "+="})
    EXPECT_EQ(binary_precedence(op), 0) << op;
  EXPECT_GT(kPrefixPrecedence, binary_precedence("*"));
}

TEST(LanguageRules, IntegerArithmeticWrapsAndRejectsZeroDivisors) {
  EXPECT_EQ(apply_binary("+", INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(apply_binary("-", INT64_MIN, 1), INT64_MAX);
  EXPECT_EQ(apply_binary("*", INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(apply_binary("/", INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(apply_binary("%", INT64_MIN, -1), 0);
  EXPECT_EQ(apply_binary("/", -7, 2), -3);
  EXPECT_EQ(apply_binary("%", -7, 2), -1);
  EXPECT_EQ(apply_binary("/", 1, 0), std::nullopt);
  EXPECT_EQ(apply_binary("%", 1, 0), std::nullopt);
  EXPECT_EQ(apply_binary("<<", 1, 1), std::nullopt);
  EXPECT_EQ(apply_binary("||", 0, 5), 1);
  EXPECT_EQ(apply_unary("-", INT64_MIN), INT64_MIN);
  EXPECT_EQ(apply_unary("!", 3), 0);
  EXPECT_EQ(apply_unary("~", 3), std::nullopt);
}

TEST(LanguageRules, InterpreterWrapsUnaryMinus) {
  auto p = parse_program(
      "int main() { int m = -9223372036854775807 - 1; return -m; }");
  ASSERT_TRUE(p.ok()) << p.error().to_string();
  auto r = interpret(p.value());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().return_value, INT64_MIN);
}

TEST(LanguageRules, TraversalReachesEveryNodeOnConstAndMutableTrees) {
  auto p = parse_program(R"(
    int main() {
      for (int i = 0; i < 2; i = i + 1) {
        if (i) { return -i; } else { while (0) { i = 1; } }
      }
      return 0;
    })");
  ASSERT_TRUE(p.ok()) << p.error().to_string();
  const Program& cp = p.value();
  std::vector<StmtKind> kinds;
  for_each_stmt(cp.functions[0].body,
                [&](const Stmt& s) { kinds.push_back(s.kind); });
  EXPECT_EQ(kinds, (std::vector<StmtKind>{
                       StmtKind::kFor, StmtKind::kDecl, StmtKind::kAssign,
                       StmtKind::kIf, StmtKind::kReturn, StmtKind::kWhile,
                       StmtKind::kAssign, StmtKind::kReturn}));
  // Mutable walk: rename every identifier in place.
  for_each_stmt(p.value().functions[0].body, [](Stmt& s) {
    for_each_expr(s, [](Expr& e) {
      if (e.kind == ExprKind::kIdent) e.name = "k";
    });
  });
  std::size_t idents = 0, others = 0;
  for_each_stmt(cp.functions[0].body, [&](const Stmt& s) {
    for_each_expr(s, [&](const Expr& e) {
      if (e.kind == ExprKind::kIdent) {
        EXPECT_EQ(e.name, "k");
        ++idents;
      } else {
        ++others;
      }
    });
  });
  EXPECT_EQ(idents, 6u);  // i < 2; i = i + 1; if (i); -i; i = 1
  EXPECT_EQ(count_nodes(cp.functions[0].body), kinds.size() + idents + others);
}

TEST(Analysis, VarUses) {
  auto p = parse_program(R"(
    int a[4];
    int main() {
      int x = 1;
      a[x] = x + 2;
      return a[0];
    })");
  ASSERT_TRUE(p.ok());
  const VarUse u = body_uses(p.value().functions[0].body);
  EXPECT_TRUE(u.writes.count("x"));
  EXPECT_TRUE(u.writes.count("a"));
  EXPECT_TRUE(u.reads.count("x"));
  EXPECT_TRUE(u.reads.count("a"));
}

TEST(Analysis, CanonicalLoopRecognition) {
  auto p = parse_program(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) { s = s + i; }
      for (int j = 10; j > 0; j = j - 1) { s = s - 1; }
      return s;
    })");
  ASSERT_TRUE(p.ok());
  const auto& body = p.value().functions[0].body;
  const auto cl = canonical_loop(*body[1]);
  ASSERT_TRUE(cl.has_value());
  EXPECT_EQ(cl->var, "i");
  EXPECT_EQ(cl->lower, 0);
  EXPECT_EQ(cl->upper, 10);
  EXPECT_FALSE(canonical_loop(*body[2]).has_value());  // descending
  EXPECT_FALSE(canonical_loop(*body[0]).has_value());  // not a loop
}

TEST(Analysis, DataParallelLoop) {
  auto p = parse_program(R"(
    int a[8];
    int b[8];
    int main() {
      for (int i = 0; i < 8; i = i + 1) {
        int t = a[i] * 2;
        b[i] = t;
      }
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { s = s + b[i]; }
      return s;
    })");
  ASSERT_TRUE(p.ok());
  const auto& body = p.value().functions[0].body;
  EXPECT_TRUE(loop_is_data_parallel(*body[0]));
  EXPECT_FALSE(loop_is_data_parallel(*body[2]));  // s is loop-carried
}

TEST(Analysis, PointerDetection) {
  auto p = parse_program(R"(
    int a[4];
    int clean() { return a[0]; }
    int dirty() { int *p = &a[0]; return *p; }
  )");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(uses_pointers(p.value().functions[0]));
  EXPECT_TRUE(uses_pointers(p.value().functions[1]));
}

TEST(Analysis, LineDiff) {
  EXPECT_EQ(line_diff("a\nb\nc", "a\nb\nc"), 0u);
  EXPECT_EQ(line_diff("a\nb", "a\nx\nb"), 1u);   // one line added
  EXPECT_EQ(line_diff("a\nb\nc", "a\nc"), 1u);   // one removed
  EXPECT_EQ(line_diff("a", "b"), 2u);            // replace = add + remove
}

TEST(Analysis, NodeCount) {
  auto p = parse_program("int main() { return 1 + 2; }");
  ASSERT_TRUE(p.ok());
  // return stmt + binary + two literals = 4.
  EXPECT_EQ(count_nodes(p.value().functions[0].body), 4u);
}

}  // namespace
}  // namespace rw::recoder
