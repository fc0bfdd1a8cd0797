#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace rw {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t\na b\r\n"), "a b");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto v = split("a,,b,", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "");
  EXPECT_EQ(v[2], "b");
  EXPECT_EQ(v[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto v = split("abc", ',');
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "abc");
}

TEST(Strings, SplitWsDropsEmpties) {
  const auto v = split_ws("  a\t b \n c ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "b");
  EXPECT_EQ(v[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("hello", "hello!"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("123", v));
  EXPECT_EQ(v, 123u);
  EXPECT_TRUE(parse_u64("  99 ", v));
  EXPECT_EQ(v, 99u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));  // UINT64_MAX
  EXPECT_FALSE(parse_u64("18446744073709551616", v)); // overflow
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("12x", v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.5", v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("-2e3", v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("1.5abc", v));
}

}  // namespace
}  // namespace rw
