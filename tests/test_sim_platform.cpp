#include "sim/platform.hpp"

#include <gtest/gtest.h>

#include "sim/process.hpp"

namespace rw::sim {
namespace {

TEST(Platform, HomogeneousBuild) {
  Platform p(PlatformConfig::homogeneous(8, mhz(500)));
  EXPECT_EQ(p.core_count(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p.core(i).pe_class(), PeClass::kRisc);
    EXPECT_EQ(p.core(i).frequency(), mhz(500));
  }
}

TEST(Platform, HeterogeneousBuild) {
  Platform p(PlatformConfig::heterogeneous(2, 3));
  EXPECT_EQ(p.core_count(), 5u);
  EXPECT_EQ(p.core(0).pe_class(), PeClass::kRisc);
  EXPECT_EQ(p.core(4).pe_class(), PeClass::kDsp);
}

TEST(Platform, RejectsEmptyConfig) {
  PlatformConfig cfg;
  EXPECT_THROW(Platform{cfg}, std::invalid_argument);
}

TEST(Platform, MemoryMapHasScratchpadsAndShared) {
  Platform p(PlatformConfig::homogeneous(4));
  // Each core's scratchpad is mapped at its base.
  for (std::uint32_t i = 0; i < 4; ++i) {
    const Addr base = p.scratchpad_base(CoreId{i});
    const Region* r = p.memory().find_region(base);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->owner, CoreId{i});
  }
  const Region* shared = p.memory().find_region(p.shared_base());
  ASSERT_NE(shared, nullptr);
  EXPECT_FALSE(shared->is_local());
}

TEST(Platform, SharedMemorySlowerThanScratchpad) {
  Platform p(PlatformConfig::homogeneous(2));
  EXPECT_GT(p.memory().find_region(p.shared_base())->access_latency,
            p.memory()
                .find_region(p.scratchpad_base(CoreId{0}))
                ->access_latency);
}

TEST(Platform, InterconnectSelection) {
  PlatformConfig cfg = PlatformConfig::homogeneous(4);
  cfg.interconnect = PlatformConfig::Icn::kMesh;
  cfg.mesh.width = 2;
  cfg.mesh.height = 2;
  Platform p(std::move(cfg));
  EXPECT_NE(p.interconnect().describe().find("mesh"), std::string::npos);

  Platform q(PlatformConfig::homogeneous(4));
  EXPECT_NE(q.interconnect().describe().find("bus"), std::string::npos);
}

TEST(Platform, PeripheralsPresent) {
  Platform p(PlatformConfig::homogeneous(2));
  const auto periphs = p.peripherals();
  ASSERT_EQ(periphs.size(), 4u);
  EXPECT_EQ(periphs[0]->name(), "irqc");
  EXPECT_EQ(periphs[1]->name(), "timer");
  EXPECT_EQ(periphs[2]->name(), "dma");
  EXPECT_EQ(periphs[3]->name(), "hwsem");
}

Process writer_task(Platform& p, CoreId core, Addr addr, std::uint64_t v) {
  co_await p.core(core).compute(100, "write_task");
  p.memory().write_u64(core, addr, v);
}

TEST(Platform, EndToEndSmoke) {
  PlatformConfig cfg = PlatformConfig::homogeneous(2, ghz(1));
  cfg.trace_enabled = true;
  Platform p(std::move(cfg));
  const Addr shared = p.shared_base();
  spawn(p.kernel(), writer_task(p, CoreId{0}, shared, 111));
  spawn(p.kernel(), writer_task(p, CoreId{1}, shared + 8, 222));
  p.kernel().run();
  EXPECT_EQ(p.memory().read_u64(CoreId{0}, shared), 111u);
  EXPECT_EQ(p.memory().read_u64(CoreId{0}, shared + 8), 222u);
  EXPECT_FALSE(p.tracer().events().empty());
}

TEST(Platform, ScratchpadTooLargeRejected) {
  PlatformConfig cfg = PlatformConfig::homogeneous(1);
  cfg.cores[0].scratchpad_bytes = kScratchpadStride + 1;
  EXPECT_THROW(Platform{std::move(cfg)}, std::invalid_argument);
}

TEST(Platform, SharedRegionPastTwoToThe32IsATypedError) {
  PlatformConfig cfg = PlatformConfig::homogeneous(1);
  cfg.shared_mem_bytes = std::uint64_t{1} << 50;  // 1 PiB
  const Status st = cfg.validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("shared memory"), std::string::npos);
  // The constructor reports the same error instead of running out of
  // memory on a 2^38-entry page table.
  EXPECT_THROW(Platform{cfg}, std::invalid_argument);
  cfg.shared_mem_bytes = kMaxSharedMemBytes + 1;
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(Platform, FabricDimensionsAreValidated) {
  const auto rejects = [](const PlatformConfig& cfg, const char* what) {
    const Status st = cfg.validate();
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_THROW(Platform{cfg}, std::invalid_argument) << what;
  };
  PlatformConfig bus = PlatformConfig::homogeneous(2);
  bus.bus.width_bytes = 0;
  rejects(bus, "zero bus width");

  PlatformConfig mesh = PlatformConfig::homogeneous(2);
  mesh.use_square_mesh();
  ASSERT_TRUE(mesh.validate().ok());
  PlatformConfig m = mesh;
  m.mesh.width = 0;
  rejects(m, "zero mesh width");
  m = mesh;
  m.mesh.height = 0;
  rejects(m, "zero mesh height");
  m = mesh;
  m.mesh.width = m.mesh.height = 65536;  // the u32 product is 0
  rejects(m, "node count overflowing 32 bits");
  m = mesh;
  m.mesh.width = 257;
  m.mesh.height = 256;
  rejects(m, "more than kMaxMeshNodes nodes");
  m = mesh;
  m.mesh.link_width_bytes = 0;
  rejects(m, "zero link width");

  m = mesh;
  m.mesh.width = m.mesh.height = 256;
  EXPECT_TRUE(m.validate().ok());
  m.bus.width_bytes = 0;  // the bus is not the active fabric
  EXPECT_TRUE(m.validate().ok());
}

TEST(Platform, LargestSharedRegionBuildsAndReachesItsLastWord) {
  PlatformConfig cfg = PlatformConfig::homogeneous(1);
  cfg.shared_mem_bytes = kMaxSharedMemBytes;
  ASSERT_TRUE(cfg.validate().ok());
  Platform p(std::move(cfg));
  const Addr last = kSharedBase + kMaxSharedMemBytes - 8;
  EXPECT_EQ(last + 8, std::uint64_t{1} << 32);
  p.memory().write_u64(CoreId{0}, last, 0x1122334455667788ULL);
  EXPECT_EQ(p.memory().read_u64(CoreId{0}, last), 0x1122334455667788ULL);
}

TEST(Platform, LocalityFlagPropagates) {
  PlatformConfig cfg = PlatformConfig::homogeneous(2);
  cfg.enforce_locality = true;
  Platform p(std::move(cfg));
  EXPECT_THROW(
      p.memory().write_u64(CoreId{1}, p.scratchpad_base(CoreId{0}), 1),
      std::runtime_error);
}

}  // namespace
}  // namespace rw::sim
