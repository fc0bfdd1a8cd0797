#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/platform.hpp"
#include "sim/process.hpp"

namespace rw::sim {
namespace {

class MemoryTest : public ::testing::Test {
 protected:
  Kernel kernel;
  ObserverList observers;
  Tracer tracer{observers};
  MemorySystem mem{kernel, tracer};
};

// Keeps every memory access it is handed.
struct AccessLog final : Observer {
  void on_mem_access(const MemAccess& a) override { seen.push_back(a); }
  std::vector<MemAccess> seen;
};

TEST_F(MemoryTest, ReadWriteRoundTrip) {
  mem.add_region("spm", 0x1000, 4096, 1, CoreId{0});
  mem.write_u64(CoreId{0}, 0x1000, 0x1122334455667788ULL);
  EXPECT_EQ(mem.read_u64(CoreId{0}, 0x1000), 0x1122334455667788ULL);
}

TEST_F(MemoryTest, RegionsStartZeroed) {
  mem.add_region("r", 0, 64, 1);
  EXPECT_EQ(mem.read_u64(CoreId{0}, 0), 0u);
}

TEST_F(MemoryTest, RejectsOverlappingRegions) {
  mem.add_region("a", 0x1000, 0x100, 1);
  EXPECT_THROW(mem.add_region("b", 0x10ff, 0x100, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(mem.add_region("c", 0x1100, 0x100, 1));
}

TEST_F(MemoryTest, UnmappedAccessThrows) {
  mem.add_region("r", 0x1000, 0x100, 1);
  EXPECT_THROW(mem.read_u64(CoreId{0}, 0x2000), std::out_of_range);
  // Access straddling the end of a region is also illegal.
  EXPECT_THROW(mem.read_u64(CoreId{0}, 0x10fc), std::out_of_range);
}

TEST_F(MemoryTest, LocalityEnforcementFaultsForeignAccess) {
  mem.add_region("spm0", 0x1000, 0x100, 1, CoreId{0});
  mem.add_region("shared", 0x8000, 0x100, 10);
  mem.set_enforce_locality(true);
  // Owner and shared accesses pass.
  EXPECT_NO_THROW(mem.write_u64(CoreId{0}, 0x1000, 1));
  EXPECT_NO_THROW(mem.write_u64(CoreId{1}, 0x8000, 1));
  // Foreign scratchpad access faults and is counted.
  EXPECT_THROW(mem.write_u64(CoreId{1}, 0x1000, 1), std::runtime_error);
  EXPECT_EQ(mem.locality_violations(), 1u);
}

TEST_F(MemoryTest, LocalityOffAllowsForeignAccess) {
  mem.add_region("spm0", 0x1000, 0x100, 1, CoreId{0});
  EXPECT_NO_THROW(mem.write_u64(CoreId{1}, 0x1000, 7));
  EXPECT_EQ(mem.read_u64(CoreId{0}, 0x1000), 7u);
}

TEST_F(MemoryTest, ObserversSeeAllAccesses) {
  mem.add_region("r", 0, 256, 1);
  AccessLog log;
  observers.attach(log);
  const std::vector<MemAccess>& seen = log.seen;
  mem.write_u64(CoreId{2}, 16, 99);
  (void)mem.read_u64(CoreId{3}, 16);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].is_write);
  EXPECT_EQ(seen[0].core, CoreId{2});
  EXPECT_EQ(seen[0].value, 99u);
  EXPECT_FALSE(seen[1].is_write);
  EXPECT_EQ(seen[1].value, 99u);
}

TEST_F(MemoryTest, BlockTransfer) {
  mem.add_region("r", 0, 256, 1);
  std::vector<std::uint8_t> in{1, 2, 3, 4, 5};
  mem.write_block(CoreId{0}, 10, in);
  std::vector<std::uint8_t> out(5);
  mem.read_block(CoreId{0}, 10, out);
  EXPECT_EQ(out, in);
}

TEST_F(MemoryTest, PokePeekBypassObservers) {
  mem.add_region("r", 0, 64, 1);
  AccessLog log;
  observers.attach(log);
  std::vector<std::uint8_t> v{42};
  mem.poke(3, v);
  std::vector<std::uint8_t> out(1);
  mem.peek(3, out);
  EXPECT_EQ(out[0], 42);
  EXPECT_EQ(log.seen.size(), 0u);
}

TEST_F(MemoryTest, LatencyLookup) {
  mem.add_region("fast", 0, 64, 1);
  mem.add_region("slow", 0x100, 64, 20);
  EXPECT_EQ(mem.find_region(0)->access_latency, 1u);
  EXPECT_EQ(mem.find_region(0x100)->access_latency, 20u);
}

TEST_F(MemoryTest, TracesAccessesWhenEnabled) {
  tracer.set_enabled(true);
  mem.add_region("r", 0, 64, 1);
  mem.write_u64(CoreId{1}, 0, 5);
  mem.read_u64(CoreId{1}, 0);
  EXPECT_EQ(tracer.filter(TraceKind::kMemWrite).size(), 1u);
  EXPECT_EQ(tracer.filter(TraceKind::kMemRead).size(), 1u);
}

TEST_F(MemoryTest, FindRegion) {
  mem.add_region("a", 0x1000, 0x100, 1);
  ASSERT_NE(mem.find_region(0x1050), nullptr);
  EXPECT_EQ(mem.find_region(0x1050)->name, "a");
  EXPECT_EQ(mem.find_region(0x2000), nullptr);
}

// Accesses near 2^64: a + len wraps, so a bounds check written as
// a + len <= base + size would let them through. Each must throw.
TEST_F(MemoryTest, AccessesNearTopOfAddressSpaceThrow) {
  constexpr Addr kTop = std::numeric_limits<Addr>::max();
  mem.add_region("low", 0, 0x100, 1);
  for (const Addr k : {0ull, 1ull, 3ull, 4ull, 7ull, 8ull, 15ull, 16ull}) {
    const Addr a = kTop - k;
    SCOPED_TRACE(k);
    EXPECT_THROW((void)mem.read_u64(CoreId{0}, a), std::out_of_range);
    EXPECT_THROW(mem.write_u64(CoreId{0}, a, 1), std::out_of_range);
    std::vector<std::uint8_t> buf(32);
    EXPECT_THROW(mem.read_block(CoreId{0}, a, buf), std::out_of_range);
    EXPECT_THROW(mem.write_block(CoreId{0}, a, buf), std::out_of_range);
    EXPECT_THROW(mem.poke(a, buf), std::out_of_range);
    EXPECT_THROW(mem.peek(a, buf), std::out_of_range);
  }
}

TEST_F(MemoryTest, BlockStraddlingTwoToThe64Throws) {
  // The highest region a 64-bit base + size admits ends one byte short of
  // 2^64; a block starting in it and running past 2^64 wraps to 0.
  constexpr Addr kTop = std::numeric_limits<Addr>::max();
  mem.add_region("top", kTop - 0xff, 0xff, 1);
  mem.add_region("low", 0, 0x100, 1);
  std::vector<std::uint8_t> buf(0x40);
  const Addr a = kTop - 0x1f;
  EXPECT_THROW(mem.read_block(CoreId{0}, a, buf), std::out_of_range);
  EXPECT_THROW(mem.write_block(CoreId{0}, a, buf), std::out_of_range);
  EXPECT_THROW(mem.poke(a, buf), std::out_of_range);
  EXPECT_THROW(mem.peek(a, buf), std::out_of_range);
  // The region's own last bytes stay reachable.
  EXPECT_NO_THROW(mem.write_u64(CoreId{0}, kTop - 8, 7));
  EXPECT_EQ(mem.read_u64(CoreId{0}, kTop - 8), 7u);
  EXPECT_THROW((void)mem.read_u64(CoreId{0}, kTop - 7), std::out_of_range);
}

TEST_F(MemoryTest, RejectsRegionOverflowingAddressSpace) {
  constexpr Addr kTop = std::numeric_limits<Addr>::max();
  EXPECT_THROW(mem.add_region("wrap", kTop - 0xf, 0x20, 1),
               std::invalid_argument);
  EXPECT_THROW(mem.add_region("end", kTop - 0xf, 0x10, 1),
               std::invalid_argument);
  EXPECT_THROW(mem.add_region("huge", 1, kTop, 1), std::invalid_argument);
  EXPECT_NO_THROW(mem.add_region("fits", kTop - 0xf, 0xf, 1));
  EXPECT_EQ(mem.regions().size(), 1u);
}

TEST_F(MemoryTest, RegionsAddedOutOfAddressOrderResolve) {
  mem.add_region("c", 0x3000, 0x100, 3);
  mem.add_region("a", 0x1000, 0x100, 1);
  mem.add_region("b", 0x2000, 0x100, 2);
  EXPECT_EQ(mem.find_region(0x1000)->name, "a");
  EXPECT_EQ(mem.find_region(0x20ff)->name, "b");
  EXPECT_EQ(mem.find_region(0x3080)->name, "c");
  EXPECT_EQ(mem.find_region(0x0fff), nullptr);
  EXPECT_EQ(mem.find_region(0x1100), nullptr);
  EXPECT_EQ(mem.find_region(0x3100), nullptr);
  EXPECT_EQ(mem.find_region(0x2010)->access_latency, 2u);
}

// The region index at model scale: a 64-core platform's 64 scratchpads
// plus the shared region. Every region's first and last byte resolves to
// that region, and an access straddling either edge throws.
TEST(MemoryIndexTest, EveryRegionEdgeOnA64CorePlatform) {
  Platform plat(PlatformConfig::homogeneous(64));
  MemorySystem& mem = plat.memory();
  ASSERT_EQ(mem.regions().size(), 65u);
  for (const Region& r : mem.regions()) {
    SCOPED_TRACE(r.name);
    const Addr first = r.base;
    const Addr last = r.base + r.size - 1;
    const CoreId who = r.owner.is_valid() ? r.owner : CoreId{0};
    ASSERT_EQ(mem.find_region(first), &r);
    ASSERT_EQ(mem.find_region(last), &r);
    mem.write_u64(who, first, 0x11);
    EXPECT_EQ(mem.read_u64(who, first), 0x11u);
    mem.write_u64(who, last - 7, 0x22);
    EXPECT_EQ(mem.read_u64(who, last - 7), 0x22u);
    std::array<std::uint8_t, 4> word{1, 1, 1, 1};
    mem.read_block(who, last - 3, word);
    EXPECT_EQ(word, (std::array<std::uint8_t, 4>{}));
    EXPECT_THROW((void)mem.read_u64(who, last - 3), std::out_of_range);
    EXPECT_THROW(mem.read_block(who, last, word), std::out_of_range);
    if (first >= 4) {
      EXPECT_THROW((void)mem.read_u64(who, first - 4), std::out_of_range);
    }
  }
}

// The backing store is a table of kPageSize pages allocated on first
// write. These tests pin the page edges: every byte a reader sees must be
// what a flat zero-filled array would hold.

// Bytes 1, 2, 3, ... (wrapping at 251), so a shifted copy cannot pass.
std::vector<std::uint8_t> ramp(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(1 + i % 251);
  return v;
}

TEST_F(MemoryTest, NeverWrittenPageReadsZeros) {
  constexpr Addr kBase = 0x10000;
  mem.add_region("r", kBase, 4 * kPageSize, 1);
  mem.write_u64(CoreId{0}, kBase + 8, 0xffffffffffffffffULL);
  // Page 2 was never written: words, blocks and peek all read zeros.
  const Addr page2 = kBase + 2 * kPageSize;
  EXPECT_EQ(mem.read_u64(CoreId{0}, page2), 0u);
  EXPECT_EQ(mem.read_u64(CoreId{0}, page2 + kPageSize - 8), 0u);
  std::vector<std::uint8_t> out(kPageSize, 0xaa);
  mem.read_block(CoreId{0}, page2, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0));
  std::fill(out.begin(), out.end(), 0xaa);
  mem.peek(page2, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0));
  // A read spanning a written page and a never-written one.
  std::vector<std::uint8_t> span(2 * kPageSize, 0xaa);
  mem.peek(kBase, span);
  std::vector<std::uint8_t> want(2 * kPageSize, 0);
  std::fill(want.begin() + 8, want.begin() + 16, 0xff);
  EXPECT_EQ(span, want);
}

TEST_F(MemoryTest, WordsAtEveryOffsetAcrossAPageEdge) {
  constexpr Addr kBase = 0x20000;
  mem.add_region("r", kBase, 3 * kPageSize, 1);
  for (Addr off = kPageSize - 8; off <= kPageSize; ++off) {
    SCOPED_TRACE(off);
    const std::uint64_t v = 0x0102030405060708ULL * (off - kPageSize + 9);
    mem.write_u64(CoreId{0}, kBase + off, v);
    EXPECT_EQ(mem.read_u64(CoreId{0}, kBase + off), v);
    std::array<std::uint8_t, 12> raw{};
    mem.peek(kBase + off - 2, raw);
    std::array<std::uint8_t, 12> want{};
    for (std::size_t i = 0; i < 8; ++i)
      want[2 + i] = static_cast<std::uint8_t>(v >> (8 * i));
    EXPECT_EQ(raw, want);
    // Clear the word so the next offset starts from zeros again.
    mem.poke(kBase + off, std::array<std::uint8_t, 8>{});
  }
}

TEST_F(MemoryTest, BlocksAndPokePeekSpanningThreePages) {
  constexpr Addr kBase = 0x40000;
  mem.add_region("r", kBase, 4 * kPageSize, 1);
  // [kPageSize - 5, 2 * kPageSize + 7): the tail of page 0, all of page 1
  // and the head of page 2.
  const std::size_t len = kPageSize + 12;
  const Addr at = kBase + kPageSize - 5;
  const std::vector<std::uint8_t> in = ramp(len);
  mem.write_block(CoreId{0}, at, in);
  std::vector<std::uint8_t> out(len);
  mem.read_block(CoreId{0}, at, out);
  EXPECT_EQ(out, in);
  std::vector<std::uint8_t> wide(len + 2);
  mem.peek(at - 1, wide);
  EXPECT_EQ(wide.front(), 0);
  EXPECT_EQ(wide.back(), 0);
  EXPECT_TRUE(std::equal(in.begin(), in.end(), wide.begin() + 1));

  const std::vector<std::uint8_t> poked(len, 0x5c);
  mem.poke(at, poked);
  mem.peek(at, out);
  EXPECT_EQ(out, poked);
  mem.read_block(CoreId{0}, at, out);
  EXPECT_EQ(out, poked);
}

TEST_F(MemoryTest, RegionSizeNotAMultipleOfThePageSize) {
  constexpr Addr kBase = 0x80000;
  constexpr std::uint64_t kSize = 2 * kPageSize + 100;
  mem.add_region("r", kBase, kSize, 1);
  const Addr last = kBase + kSize - 1;
  mem.write_u64(CoreId{0}, last - 7, 0x8877665544332211ULL);
  EXPECT_EQ(mem.read_u64(CoreId{0}, last - 7), 0x8877665544332211ULL);
  std::array<std::uint8_t, 1> byte{0x3d};
  mem.poke(last, byte);
  byte[0] = 0;
  mem.peek(last, byte);
  EXPECT_EQ(byte[0], 0x3d);
  EXPECT_THROW((void)mem.read_u64(CoreId{0}, last - 6), std::out_of_range);
  EXPECT_THROW(mem.write_u64(CoreId{0}, last - 6, 1), std::out_of_range);
  EXPECT_THROW(mem.peek(last + 1, byte), std::out_of_range);
  EXPECT_THROW(mem.poke(last + 1, byte), std::out_of_range);
  std::array<std::uint8_t, 2> two{};
  EXPECT_THROW(mem.read_block(CoreId{0}, last, two), std::out_of_range);
  EXPECT_THROW(mem.write_block(CoreId{0}, last, two), std::out_of_range);
}

TEST_F(MemoryTest, PageTableRoundsUpAndReachesTheTopOfAddressSpace) {
  // The count is (size >> kPageBits) plus one for a partial page, never
  // (size + kPageSize - 1) / kPageSize, which wraps for sizes near 2^64.
  constexpr Addr kTop = std::numeric_limits<Addr>::max();
  const std::uint64_t sizes[] = {1, kPageSize - 1, kPageSize, kPageSize + 1,
                                 kPageSize + 9};
  const std::size_t pages[] = {1, 1, 1, 2, 2};
  Addr base = 0;
  for (const std::uint64_t size : sizes) {
    mem.add_region("r", base, size, 1);
    base += 4 * kPageSize;
  }
  // The highest region ends one byte short of 2^64 with a partial page.
  mem.add_region("top", kTop - (kPageSize + 9), kPageSize + 9, 1);
  for (std::size_t i = 0; i < std::size(sizes); ++i)
    EXPECT_EQ(mem.regions()[i].pages.size(), pages[i]) << sizes[i];
  EXPECT_EQ(mem.regions().back().pages.size(), 2u);
  mem.write_u64(CoreId{0}, kTop - 8, 0x42);
  EXPECT_EQ(mem.read_u64(CoreId{0}, kTop - 8), 0x42u);
  EXPECT_EQ(mem.read_u64(CoreId{0}, kTop - 16), 0u);
}

Process keep_alive(Platform& p) { co_await p.core(0).compute(40000, "bg"); }

TEST(MemoryPageTest, DmaCopyAcrossAPageEdge) {
  Platform plat(PlatformConfig::homogeneous(2));
  MemorySystem& mem = plat.memory();
  const Addr base = plat.shared_base();
  const std::vector<std::uint8_t> in = ramp(64);
  // Source straddles the page 0/1 edge, destination the page 2/3 edge,
  // which no one has written.
  const Addr src = base + kPageSize - 24;
  const Addr dst = base + 3 * kPageSize - 40;
  mem.poke(src, in);
  ASSERT_TRUE(plat.dma().start(src, dst, in.size()));
  plat.kernel().run();
  std::vector<std::uint8_t> out(in.size() + 2);
  mem.peek(dst - 1, out);
  EXPECT_EQ(out.front(), 0);
  EXPECT_EQ(out.back(), 0);
  EXPECT_TRUE(std::equal(in.begin(), in.end(), out.begin() + 1));
}

TEST(MemoryPageTest, FaultBitFlipInANeverWrittenPage) {
  Platform plat(PlatformConfig::homogeneous(2));
  const Addr target = plat.shared_base() + 5 * kPageSize + 3;
  fault::FaultInjector injector(plat,
                                fault::FaultPlan{}.flip_bit(1000, target, 6));
  injector.arm();
  spawn(plat.kernel(), keep_alive(plat));
  plat.kernel().run();
  EXPECT_EQ(injector.applied(), 1u);
  std::array<std::uint8_t, 3> around{};
  plat.memory().peek(target - 1, around);
  EXPECT_EQ(around, (std::array<std::uint8_t, 3>{0, 0x40, 0}));
  EXPECT_EQ(plat.memory().read_u64(CoreId{0}, target - 3), 0x40ULL << 24);
}

}  // namespace
}  // namespace rw::sim
