#include <gtest/gtest.h>

#include "recoder/recoder.hpp"

namespace rw::recoder {
namespace {

/// Helper: both programs must compute identical results.
void expect_equivalent(const RecoderSession& session,
                       const InterpResult& reference) {
  const auto r = session.execute();
  ASSERT_TRUE(r.ok()) << r.error().to_string() << "\nsource:\n"
                      << session.source();
  EXPECT_EQ(r.value(), reference) << session.source();
}

InterpResult reference_of(const RecoderSession& s) {
  auto r = s.execute();
  EXPECT_TRUE(r.ok());
  return r.value();
}

RecoderSession open(const char* src) {
  auto s = RecoderSession::from_source(src);
  EXPECT_TRUE(s.ok()) << s.error().to_string();
  return std::move(s).take();
}

// --------------------------------------------------------------- split_loop

const char* kDataParallelSrc = R"(
  int in[16];
  int out[16];
  int main() {
    for (int i = 0; i < 16; i = i + 1) { in[i] = i * 3; }
    for (int i = 0; i < 16; i = i + 1) {
      int t = in[i] + 1;
      out[i] = t * t;
    }
    int s = 0;
    for (int i = 0; i < 16; i = i + 1) { s = s + out[i]; }
    return s;
  }
)";

TEST(SplitLoop, PreservesSemantics) {
  auto s = open(kDataParallelSrc);
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_split_loop("main", 1, 4).ok());
  expect_equivalent(s, ref);
  // The split produced 4 loops where 1 stood: 3 + 3 = 6 total loops.
  EXPECT_NE(s.source().find("i = 4"), std::string::npos);
  EXPECT_NE(s.source().find("i = 12"), std::string::npos);
}

TEST(SplitLoop, UnevenPartsCoverRange) {
  auto s = open(kDataParallelSrc);
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_split_loop("main", 1, 3).ok());  // 16 = 6+6+4
  expect_equivalent(s, ref);
}

TEST(SplitLoop, RefusesLoopCarriedDependence) {
  auto s = open(kDataParallelSrc);
  // Loop 2 accumulates into s: not data parallel.
  const auto st = s.cmd_split_loop("main", 2, 2);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("dependence"), std::string::npos);
}

TEST(SplitLoop, RefusesUnknownFunctionOrLoop) {
  auto s = open(kDataParallelSrc);
  EXPECT_FALSE(s.cmd_split_loop("nope", 0, 2).ok());
  EXPECT_FALSE(s.cmd_split_loop("main", 9, 2).ok());
}

// ------------------------------------------------------------ split_vector

TEST(SplitVector, AfterLoopSplitPreservesSemantics) {
  auto s = open(kDataParallelSrc);
  const auto ref0 = s.execute();
  ASSERT_TRUE(ref0.ok());
  // Split the two data-parallel loops 2-ways (the accumulator loop stays
  // whole — and so must the `out` array), then split `in` to match.
  ASSERT_TRUE(s.cmd_split_loop("main", 1, 2).ok());
  ASSERT_TRUE(s.cmd_split_loop("main", 0, 2).ok());
  ASSERT_TRUE(s.cmd_split_vector("main", "in", 2).ok()) << s.source();

  // Globals changed names, so compare return value only.
  const auto r = s.execute();
  ASSERT_TRUE(r.ok()) << r.error().to_string() << s.source();
  EXPECT_EQ(r.value().return_value, ref0.value().return_value);
  EXPECT_NE(s.source().find("int in_0[8]"), std::string::npos);
  EXPECT_NE(s.source().find("int in_1[8]"), std::string::npos);
  EXPECT_EQ(s.source().find("int in[16]"), std::string::npos);
}

TEST(SplitVector, RefusesRangeSpanningPartitions) {
  auto s = open(kDataParallelSrc);
  const auto st = s.cmd_split_vector("main", "in", 2);
  EXPECT_FALSE(st.ok());  // unsplit loops span both halves
}

TEST(SplitVector, RefusesUnknownArray) {
  auto s = open(kDataParallelSrc);
  EXPECT_FALSE(s.cmd_split_vector("main", "ghost", 2).ok());
}

// --------------------------------------------------------------- localize

TEST(Localize, MovesScalarIntoLoop) {
  auto s = open(R"(
    int out[8];
    int main() {
      int t;
      for (int i = 0; i < 8; i = i + 1) {
        t = i * 2;
        out[i] = t + 1;
      }
      return out[7];
    })");
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_localize("main", "t").ok()) << s.source();
  expect_equivalent(s, ref);
  // After localization the loop can be split.
  ASSERT_TRUE(s.cmd_split_loop("main", 0, 2).ok()) << s.source();
  expect_equivalent(s, ref);
}

TEST(Localize, RefusesValueCarriedAcrossIterations) {
  auto s = open(R"(
    int out[8];
    int main() {
      int acc;
      acc = 0;
      for (int i = 0; i < 8; i = i + 1) {
        acc = acc + i;
        out[i] = acc;
      }
      return out[7];
    })");
  EXPECT_FALSE(s.cmd_localize("main", "acc").ok());
}

// ---------------------------------------------------------- insert_channel

TEST(InsertChannel, ReplacesArrayWithChannel) {
  auto s = open(R"(
    int mid[8];
    int out[8];
    int main() {
      for (int i = 0; i < 8; i = i + 1) { mid[i] = i * i; }
      for (int j = 0; j < 8; j = j + 1) { out[j] = mid[j] + mid[j]; }
      int r = 0;
      for (int k = 0; k < 8; k = k + 1) { r = r + out[k]; }
      return r;
    })");
  const auto before = s.execute();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(s.cmd_insert_channel("main", "mid", 3).ok()) << s.source();
  const auto after = s.execute();
  ASSERT_TRUE(after.ok()) << after.error().to_string() << s.source();
  EXPECT_EQ(after.value().return_value, before.value().return_value);
  EXPECT_NE(s.source().find("chan_send(3"), std::string::npos);
  EXPECT_NE(s.source().find("chan_recv(3"), std::string::npos);
  EXPECT_EQ(s.source().find("int mid[8]"), std::string::npos);
}

TEST(InsertChannel, RefusesMismatchedRanges) {
  auto s = open(R"(
    int mid[8];
    int main() {
      for (int i = 0; i < 8; i = i + 1) { mid[i] = i; }
      int r = 0;
      for (int j = 0; j < 4; j = j + 1) { r = r + mid[j]; }
      return r;
    })");
  EXPECT_FALSE(s.cmd_insert_channel("main", "mid", 1).ok());
}

TEST(InsertChannel, RefusesConsumerBeforeProducer) {
  auto s = open(R"(
    int mid[4];
    int main() {
      int r = 0;
      for (int j = 0; j < 4; j = j + 1) { r = r + mid[j]; }
      for (int i = 0; i < 4; i = i + 1) { mid[i] = i; }
      return r;
    })");
  EXPECT_FALSE(s.cmd_insert_channel("main", "mid", 1).ok());
}

// -------------------------------------------------------- pointer_to_index

TEST(PointerRecoding, RewritesPointerExpressions) {
  auto s = open(R"(
    int a[8];
    int main() {
      int *p = &a[2];
      *p = 5;
      *(p + 1) = 7;
      *(p - 1) = 3;
      int *q = a;
      q[5] = 11;
      return a[1] + a[2] + a[3] + a[5];
    })");
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_pointer_to_index("main").ok()) << s.source();
  expect_equivalent(s, ref);
  EXPECT_EQ(s.source().find('*'), std::string::npos);  // pointer-free
  EXPECT_EQ(s.source().find('&'), std::string::npos);
  EXPECT_NE(s.source().find("a[2 + 1]"), std::string::npos);
}

TEST(PointerRecoding, RefusesReassignedPointer) {
  auto s = open(R"(
    int a[8];
    int main() {
      int *p = &a[0];
      p = p + 1;
      *p = 5;
      return a[1];
    })");
  EXPECT_FALSE(s.cmd_pointer_to_index("main").ok());
}

TEST(PointerRecoding, NoopWithoutPointers) {
  auto s = open("int main() { return 3; }");
  EXPECT_TRUE(s.cmd_pointer_to_index("main").ok());
}

// ----------------------------------------------------------- prune_control

TEST(PruneControl, RemovesDeadBranchesAndFoldsConstants) {
  auto s = open(R"(
    int main() {
      int x = 0;
      if (1) { x = x + 2 * 3; } else { x = 999; }
      if (0) { x = 777; }
      while (0) { x = 888; }
      if (2 > 5) { x = 666; }
      return x;
    })");
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_prune_control("main").ok());
  expect_equivalent(s, ref);
  const std::string out = s.source();
  EXPECT_EQ(out.find("999"), std::string::npos);
  EXPECT_EQ(out.find("777"), std::string::npos);
  EXPECT_EQ(out.find("888"), std::string::npos);
  EXPECT_EQ(out.find("666"), std::string::npos);
  EXPECT_EQ(out.find("if"), std::string::npos);
  EXPECT_NE(out.find("x + 6"), std::string::npos);  // folded 2*3
}

TEST(PruneControl, KeepsConditionsWithCalls) {
  auto s = open(R"(
    int g;
    int bump() { g = g + 1; return 0; }
    int main() {
      if (bump() && 0) { g = 100; }
      return g;
    })");
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_prune_control("main").ok());
  expect_equivalent(s, ref);
  EXPECT_NE(s.source().find("bump()"), std::string::npos);
}

/// prune_control on `src`: the folded program, and its printed text parsed
/// back, must both compute what the original computes.
void expect_prune_keeps_meaning(const char* src) {
  auto s = open(src);
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_prune_control("main").ok());
  expect_equivalent(s, ref);
  auto reparsed = parse_program(s.source());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string() << "\n"
                             << s.source();
  const auto r = interpret(reparsed.value());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value(), ref) << s.source();
}

TEST(PruneControl, FoldsDivisionByMinusOneLikeTheInterpreter) {
  // The host's INT64_MIN / -1 and % -1 trap (SIGFPE); the folder must
  // apply the interpreter's rule instead.
  expect_prune_keeps_meaning(R"(
    int r[2];
    int main() {
      r[0] = (-9223372036854775807 - 1) / -1;
      r[1] = (-9223372036854775807 - 1) % -1;
      return r[0];
    })");
}

TEST(PruneControl, FoldsOverflowWithTheInterpretersWrapping) {
  // Each folds to INT64_MIN, which the printer must spell so that it
  // parses back.
  expect_prune_keeps_meaning(R"(
    int r[3];
    int main() {
      r[0] = 9223372036854775807 + 1;
      r[1] = (-9223372036854775807 - 1) * -1;
      r[2] = -(-9223372036854775807 - 1);
      return r[0] + r[1] + r[2];
    })");
}

TEST(PruneControl, LeavesDivisionByZeroUnfolded) {
  auto s = open("int main() { if (0) { return 1 / 0; } return 7 % 0; }");
  ASSERT_TRUE(s.cmd_prune_control("main").ok());
  EXPECT_NE(s.source().find("7 % 0"), std::string::npos) << s.source();
  const auto r = s.execute();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("modulo by zero"), std::string::npos);
}

// ---------------------------------------------------------------- outline

TEST(Outline, ExtractsRegionIntoFunction) {
  auto s = open(R"(
    int data[8];
    int main() {
      int n = 8;
      for (int i = 0; i < 8; i = i + 1) { data[i] = i; }
      for (int i = 0; i < 8; i = i + 1) { data[i] = data[i] * 2; }
      int r = 0;
      for (int i = 0; i < 8; i = i + 1) { r = r + data[i]; }
      return r;
    })");
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_outline("main", 1, 3, "prepare").ok()) << s.source();
  expect_equivalent(s, ref);
  EXPECT_NE(s.source().find("void prepare("), std::string::npos);
  EXPECT_NE(s.source().find("prepare()"), std::string::npos);
}

TEST(Outline, PassesReadScalarsAsParams) {
  auto s = open(R"(
    int data[8];
    int main() {
      int n = 8;
      for (int i = 0; i < n; i = i + 1) { data[i] = i; }
      return data[5];
    })");
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_outline("main", 1, 2, "fill").ok()) << s.source();
  expect_equivalent(s, ref);
  EXPECT_NE(s.source().find("void fill(int n)"), std::string::npos);
  EXPECT_NE(s.source().find("fill(n)"), std::string::npos);
}

TEST(Outline, RefusesRegionWritingOuterScalar) {
  auto s = open(R"(
    int main() {
      int r = 0;
      r = r + 1;
      return r;
    })");
  EXPECT_FALSE(s.cmd_outline("main", 1, 2, "bump").ok());
}

TEST(Outline, RefusesDuplicateName) {
  auto s = open(R"(
    int helper() { return 1; }
    int main() { int x = 1; x = 2; return helper(); })");
  EXPECT_FALSE(s.cmd_outline("main", 0, 1, "helper").ok());
}

// -------------------------------------------------------- distribute_loop

TEST(DistributeLoop, FissionWithScalarExpansion) {
  auto s = open(R"(
    int a[8];
    int b[8];
    int c[8];
    int main() {
      for (int i = 0; i < 8; i = i + 1) {
        int t = i * 2;
        a[i] = t + 1;
        b[i] = t * t;
        c[i] = a[i] + b[i];
      }
      return c[7];
    })");
  const auto ref = reference_of(s);
  ASSERT_TRUE(s.cmd_distribute_loop("main", 0).ok()) << s.source();
  const auto r = s.execute();
  ASSERT_TRUE(r.ok()) << r.error().to_string() << s.source();
  EXPECT_EQ(r.value().return_value, ref.return_value);
  // Scalar t was expanded into an array.
  EXPECT_NE(s.source().find("int t_x[8]"), std::string::npos);
  // Pipeline stages: 4 loops now (t, a, b, c).
  std::size_t count = 0, pos = 0;
  while ((pos = s.source().find("for (", pos)) != std::string::npos) {
    ++count;
    pos += 4;
  }
  EXPECT_EQ(count, 4u);
}

TEST(DistributeLoop, RefusesBackwardDependence) {
  auto s = open(R"(
    int a[8];
    int main() {
      for (int i = 0; i < 8; i = i + 1) {
        int t;
        a[i] = t;
        t = i;
      }
      return a[7];
    })");
  EXPECT_FALSE(s.cmd_distribute_loop("main", 0).ok());
}

// --------------------------------------------------------------- sessions

TEST(Session, JournalRecordsCommandsAndEffort) {
  auto s = open(kDataParallelSrc);
  ASSERT_TRUE(s.cmd_split_loop("main", 1, 4).ok());
  EXPECT_FALSE(s.cmd_split_loop("main", 99, 2).ok());
  ASSERT_EQ(s.journal().size(), 2u);
  EXPECT_TRUE(s.journal()[0].ok);
  EXPECT_GT(s.journal()[0].lines_changed, 0u);
  EXPECT_FALSE(s.journal()[1].ok);
  EXPECT_FALSE(s.journal()[1].message.empty());
  EXPECT_EQ(s.commands_applied(), 1u);
  EXPECT_EQ(s.total_lines_changed(), s.journal()[0].lines_changed);
}

TEST(Session, UndoRedoRestoresText) {
  auto s = open(kDataParallelSrc);
  const std::string original = s.source();
  ASSERT_TRUE(s.cmd_split_loop("main", 1, 2).ok());
  const std::string transformed = s.source();
  ASSERT_NE(original, transformed);
  EXPECT_TRUE(s.undo());
  EXPECT_EQ(s.source(), original);
  EXPECT_TRUE(s.redo());
  EXPECT_EQ(s.source(), transformed);
  EXPECT_FALSE(s.redo());
}

TEST(Session, FailedCommandLeavesProgramUntouched) {
  auto s = open(kDataParallelSrc);
  const std::string original = s.source();
  EXPECT_FALSE(s.cmd_split_loop("main", 2, 2).ok());
  EXPECT_EQ(s.source(), original);
  EXPECT_FALSE(s.undo());  // nothing to undo
}

TEST(Session, DirectTextEditKeepsAstInSync) {
  auto s = open("int main() { return 1; }");
  ASSERT_TRUE(s.cmd_edit_text("int main() { return 2; }").ok());
  auto r = s.execute();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 2);
  // Broken edits are rejected and the AST stays intact.
  EXPECT_FALSE(s.cmd_edit_text("int main() {").ok());
  EXPECT_EQ(s.execute().value().return_value, 2);
}

TEST(Session, FullRecodingPipeline) {
  // The paper's canonical flow: split loops -> split vectors -> localize ->
  // channels, ending in an analyzable parallel-shaped program.
  auto s = open(R"(
    int stage1[12];
    int stage2[12];
    int main() {
      int t;
      for (int i = 0; i < 12; i = i + 1) {
        t = i * 5;
        stage1[i] = t + 2;
      }
      for (int i = 0; i < 12; i = i + 1) {
        stage2[i] = stage1[i] * 3;
      }
      int r = 0;
      for (int i = 0; i < 12; i = i + 1) { r = r + stage2[i]; }
      return r;
    })");
  const auto ref = s.execute();
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(s.cmd_localize("main", "t").ok()) << s.source();
  ASSERT_TRUE(s.cmd_insert_channel("main", "stage1", 7).ok()) << s.source();
  const auto r = s.execute();
  ASSERT_TRUE(r.ok()) << r.error().to_string() << s.source();
  EXPECT_EQ(r.value().return_value, ref.value().return_value);
  EXPECT_GE(s.commands_applied(), 2u);
  EXPECT_GT(s.total_lines_changed(), 4u);
}

}  // namespace
}  // namespace rw::recoder
