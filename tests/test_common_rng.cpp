#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rw {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, NextBelowInRange) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(5);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) ++hits[r.next_below(8)];
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(r.next_int(5, 5), 5);
  EXPECT_EQ(r.next_int(5, 4), 5);  // degenerate range clamps to lo
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliEdges) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(19);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = r.next_exponential(5.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.25);
}

}  // namespace
}  // namespace rw
