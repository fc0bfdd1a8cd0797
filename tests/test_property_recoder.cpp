// Property sweep: randomly generated mini-C programs put through random
// recoding-transformation sequences must preserve their interpreted
// semantics at every step — the recoder's core contract (Sec. VI).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "recoder/recoder.hpp"

namespace rw::recoder {
namespace {

/// Random program: G global arrays, a few canonical loops filling /
/// transforming / reducing them, occasional pointer inits and constant
/// branches (so every transformation has something to chew on).
std::string random_program(Rng& rng) {
  const int arrays = static_cast<int>(rng.next_int(2, 4));
  const int n = static_cast<int>(rng.next_int(8, 24));
  std::string s;
  for (int a = 0; a < arrays; ++a)
    s += strformat("int g%d[%d];\n", a, n);
  s += "int main() {\n  int t;\n";

  // Fill loops: one per array, sometimes through a pointer.
  for (int a = 0; a < arrays; ++a) {
    if (rng.next_bool(0.4)) {
      s += strformat("  int *p%d = &g%d[0];\n", a, a);
      s += strformat(
          "  for (int i = 0; i < %d; i = i + 1) { *(p%d + i) = i * %lld; "
          "}\n",
          n, a, static_cast<long long>(rng.next_int(1, 9)));
    } else {
      s += strformat(
          "  for (int i = 0; i < %d; i = i + 1) { g%d[i] = i * %lld + "
          "%lld; }\n",
          n, a, static_cast<long long>(rng.next_int(1, 9)),
          static_cast<long long>(rng.next_int(0, 5)));
    }
  }
  // A transform loop using the scalar t (localizable pattern).
  s += strformat(
      "  for (int i = 0; i < %d; i = i + 1) {\n"
      "    t = g0[i] * %lld;\n"
      "    g1[i] = t + 1;\n"
      "  }\n",
      n, static_cast<long long>(rng.next_int(2, 5)));
  // Dead control flow for prune_control.
  if (rng.next_bool(0.5))
    s += "  if (0) { g0[0] = 12345; }\n";
  if (rng.next_bool(0.5))
    s += strformat("  if (1) { g1[0] = g1[0] + %lld; }\n",
                   static_cast<long long>(rng.next_int(1, 3)));
  // Reduction.
  s += strformat(
      "  int acc = 0;\n"
      "  for (int i = 0; i < %d; i = i + 1) { acc = acc * 13 + g1[i]; }\n",
      n);
  s += "  return acc % 1000000;\n}\n";
  return s;
}

class RecoderProperty : public ::testing::TestWithParam<int> {};

TEST_P(RecoderProperty, RandomTransformSequencePreservesSemantics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::string src = random_program(rng);
  auto sr = RecoderSession::from_source(src);
  ASSERT_TRUE(sr.ok()) << sr.error().to_string() << "\n" << src;
  RecoderSession s = std::move(sr).take();
  const auto ref = s.execute();
  ASSERT_TRUE(ref.ok()) << ref.error().to_string() << "\n" << src;

  // Try a random sequence of commands; refusals are fine (conservative
  // analyses), but any *accepted* command must preserve semantics.
  int applied = 0;
  for (int step = 0; step < 12; ++step) {
    const int pick = static_cast<int>(rng.next_int(0, 5));
    Status st = Status::ok_status();
    switch (pick) {
      case 0:
        st = s.cmd_pointer_to_index("main");
        break;
      case 1:
        st = s.cmd_localize("main", "t");
        break;
      case 2:
        st = s.cmd_prune_control("main");
        break;
      case 3: {
        const auto loop = static_cast<std::size_t>(rng.next_int(0, 5));
        st = s.cmd_split_loop("main", loop,
                              static_cast<std::size_t>(rng.next_int(2, 4)));
        break;
      }
      case 4: {
        const auto g = strformat("g%d", static_cast<int>(rng.next_int(0, 3)));
        st = s.cmd_insert_channel("main", g,
                                  rng.next_int(1, 9));
        break;
      }
      case 5: {
        const auto g = strformat("g%d", static_cast<int>(rng.next_int(0, 3)));
        st = s.cmd_split_vector("main", g,
                                static_cast<std::size_t>(
                                    rng.next_int(2, 3)));
        break;
      }
    }
    if (!st.ok()) continue;
    ++applied;
    const auto now = s.execute();
    ASSERT_TRUE(now.ok())
        << "seed " << GetParam() << " step " << step << ": "
        << now.error().to_string() << "\nsource:\n" << s.source();
    ASSERT_EQ(now.value().return_value, ref.value().return_value)
        << "seed " << GetParam() << " step " << step << " command "
        << s.journal().back().command << "\nsource:\n" << s.source();
  }
  // Undo everything: must reproduce the original result too.
  while (s.undo()) {
  }
  const auto back = s.execute();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().return_value, ref.value().return_value);
  (void)applied;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecoderProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace rw::recoder
