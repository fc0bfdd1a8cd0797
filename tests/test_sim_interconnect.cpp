#include "sim/interconnect.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rw::sim {
namespace {

TEST(SharedBus, TransferTimeScalesWithSize) {
  Kernel k;
  SharedBus bus(k, SharedBus::Config{mhz(100), 4, 0});
  // 100 MHz, 4 bytes/beat -> 16 bytes = 4 beats = 40 ns.
  auto [s, f] = bus.reserve_transfer(CoreId{0}, CoreId{1}, 16, 0);
  EXPECT_EQ(s, 0u);
  EXPECT_EQ(f, nanoseconds(40));
}

TEST(SharedBus, ArbitrationOverheadAdds) {
  Kernel k;
  SharedBus bus(k, SharedBus::Config{mhz(100), 4, 2});
  auto [s, f] = bus.reserve_transfer(CoreId{0}, CoreId{1}, 4, 0);
  EXPECT_EQ(f - s, nanoseconds(30));  // 1 beat + 2 arbitration cycles
}

TEST(SharedBus, SerializesConcurrentTransfers) {
  Kernel k;
  SharedBus bus(k, SharedBus::Config{mhz(100), 4, 0});
  auto [s1, f1] = bus.reserve_transfer(CoreId{0}, CoreId{1}, 4, 0);
  auto [s2, f2] = bus.reserve_transfer(CoreId{2}, CoreId{3}, 4, 0);
  EXPECT_EQ(s2, f1);  // second transfer waits: the centralized bottleneck
  EXPECT_GT(bus.total_contention(), 0u);
  EXPECT_EQ(bus.transfer_count(), 2u);
}

TEST(SharedBus, PartialBeatRoundsUp) {
  Kernel k;
  SharedBus bus(k, SharedBus::Config{mhz(100), 8, 0});
  auto [s, f] = bus.reserve_transfer(CoreId{0}, CoreId{1}, 9, 0);
  EXPECT_EQ(f - s, nanoseconds(20));  // 2 beats
}

TEST(MeshNoc, HopCountIsManhattanDistance) {
  Kernel k;
  MeshNoc noc(k, MeshNoc::Config{4, 4, nanoseconds(5), mhz(500), 4});
  // Core ids map row-major onto the mesh: core 0 at (0,0), core 5 at (1,1).
  EXPECT_EQ(noc.hop_count(CoreId{0}, CoreId{0}), 0u);
  EXPECT_EQ(noc.hop_count(CoreId{0}, CoreId{1}), 1u);
  EXPECT_EQ(noc.hop_count(CoreId{0}, CoreId{5}), 2u);
  EXPECT_EQ(noc.hop_count(CoreId{0}, CoreId{15}), 6u);
  // It is also the length of the XY route transfers reserve, including
  // cores that wrap onto shared nodes (3x2 mesh, 8 cores: 6->0, 7->1).
  const MeshNoc::Config wrap{3, 2, nanoseconds(5), mhz(500), 4};
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      std::uint32_t links = 0;
      for_each_mesh_link(wrap, CoreId{s}, CoreId{d},
                         [&links](std::size_t) { ++links; });
      EXPECT_EQ(mesh_hops(wrap, CoreId{s}, CoreId{d}), links)
          << s << "->" << d;
    }
  }
}

TEST(MeshNoc, RouteWalksXThenYInLinkEncoding) {
  // Link = node*4 + direction (0=+x, 1=-x, 2=+y, 3=-y), node row-major.
  const MeshNoc::Config cfg{4, 4, nanoseconds(5), mhz(500), 4};
  const auto route = [&cfg](std::uint32_t s, std::uint32_t d) {
    std::vector<std::size_t> links;
    for_each_mesh_link(cfg, CoreId{s}, CoreId{d},
                       [&links](std::size_t l) { links.push_back(l); });
    return links;
  };
  EXPECT_EQ(route(0, 5), (std::vector<std::size_t>{0, 6}));
  EXPECT_EQ(route(5, 0), (std::vector<std::size_t>{21, 19}));
  EXPECT_EQ(route(3, 3), (std::vector<std::size_t>{}));
  EXPECT_EQ(route(12, 3), (std::vector<std::size_t>{48, 52, 56, 63, 47, 31}));
}

TEST(MeshNoc, LocalTransferIsFree) {
  Kernel k;
  MeshNoc noc(k, MeshNoc::Config{4, 4, nanoseconds(5), mhz(500), 4});
  auto [s, f] = noc.reserve_transfer(CoreId{3}, CoreId{3}, 1024, 0);
  EXPECT_EQ(s, f);
}

TEST(MeshNoc, LatencyGrowsWithDistance) {
  Kernel k;
  MeshNoc noc(k, MeshNoc::Config{8, 8, nanoseconds(5), mhz(500), 4});
  const auto near = noc.nominal_latency(CoreId{0}, CoreId{1}, 64);
  const auto far = noc.nominal_latency(CoreId{0}, CoreId{63}, 64);
  EXPECT_GT(far, near);
  EXPECT_EQ(far, 14u * near);  // 14 hops vs 1 hop, linear in distance
}

TEST(MeshNoc, DisjointRoutesDoNotContend) {
  Kernel k;
  MeshNoc noc(k, MeshNoc::Config{4, 4, nanoseconds(5), mhz(500), 4});
  // (0,0)->(1,0) and (2,2)->(3,2): no shared links.
  auto [s1, f1] = noc.reserve_transfer(CoreId{0}, CoreId{1}, 64, 0);
  auto [s2, f2] = noc.reserve_transfer(CoreId{10}, CoreId{11}, 64, 0);
  EXPECT_EQ(s1, s2);  // both start immediately — distributed fabric
  EXPECT_EQ(noc.total_contention(), 0u);
}

TEST(MeshNoc, SharedLinkSerializes) {
  Kernel k;
  MeshNoc noc(k, MeshNoc::Config{4, 4, nanoseconds(5), mhz(500), 4});
  // Both transfers use link (0,0)->(1,0) first.
  auto [s1, f1] = noc.reserve_transfer(CoreId{0}, CoreId{1}, 64, 0);
  auto [s2, f2] = noc.reserve_transfer(CoreId{0}, CoreId{2}, 64, 0);
  EXPECT_GE(s2, f1);
  EXPECT_GT(noc.total_contention(), 0u);
}

TEST(MeshNoc, EarliestRespected) {
  Kernel k;
  MeshNoc noc(k, MeshNoc::Config{4, 4, nanoseconds(5), mhz(500), 4});
  auto [s, f] = noc.reserve_transfer(CoreId{0}, CoreId{1}, 4, 12345);
  EXPECT_GE(s, 12345u);
}

TEST(MeshNoc, RejectsZeroDimensions) {
  Kernel k;
  EXPECT_THROW(MeshNoc(k, MeshNoc::Config{0, 4}), std::invalid_argument);
}

TEST(Interconnect, Describe) {
  Kernel k;
  SharedBus bus(k, {});
  MeshNoc noc(k, {});
  EXPECT_NE(bus.describe().find("shared-bus"), std::string::npos);
  EXPECT_NE(noc.describe().find("mesh-noc"), std::string::npos);
}

}  // namespace
}  // namespace rw::sim
