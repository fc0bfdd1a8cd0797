#include "common/fnv.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace rw {
namespace {

// The plain FNV-1a loop over the eight little-endian bytes of `v`.
std::uint64_t fold_bytewise(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// fold_u64 skips the zero high bytes of each value; it must equal the
// byte-wise loop on every input.
TEST(Fnv, U64FoldMatchesBytewiseLoop) {
  std::vector<std::uint64_t> edges = {0, ~0ULL};
  for (int k = 0; k < 8; ++k) {
    const std::uint64_t p = 1ULL << (8 * k);  // 256^k
    edges.insert(edges.end(), {p - 1, p, p + 1});
  }
  const std::uint64_t seeds[] = {fnv::kRecorderSeed, 0, ~0ULL};
  for (const std::uint64_t v : edges)
    for (const std::uint64_t h : seeds)
      ASSERT_EQ(fnv::fold_u64(h, v), fold_bytewise(h, v)) << v;

  // Fixed-seed values spread over every byte width (a uniform draw is
  // almost always 8 bytes wide).
  Rng rng(0x5eedf01d);
  std::uint64_t h = fnv::kRecorderSeed;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t v = rng.next_u64() >> rng.next_below(64);
    const std::uint64_t want = fold_bytewise(h, v);
    ASSERT_EQ(fnv::fold_u64(h, v), want) << v;
    h = want;
  }
}

TEST(Fnv, StringFoldIsStandardFnv1a) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv::fold(fnv::kOffset, ""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv::fold(fnv::kOffset, "a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv::fold(fnv::kOffset, "foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace rw
