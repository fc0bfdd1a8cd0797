#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/platform.hpp"

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

}  // namespace
}  // namespace rw::sim
