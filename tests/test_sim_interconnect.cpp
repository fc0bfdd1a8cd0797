#include "sim/interconnect.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fabric_oracle.hpp"

namespace rw::sim {
namespace {

FabricConfig bus_cfg(BusConfig bus) {
  return {FabricConfig::Icn::kSharedBus, bus, {}};
}

FabricConfig mesh_cfg(MeshConfig mesh) {
  return {FabricConfig::Icn::kMesh, {}, mesh};
}

std::uint32_t hops(const MeshConfig& mesh, std::uint32_t s, std::uint32_t d) {
  return route_length(mesh_cfg(mesh), CoreId{s}, CoreId{d});
}

TEST(SharedBus, TransferTimeScalesWithSize) {
  Kernel k;
  Interconnect bus(k, bus_cfg({mhz(100), 4, 0}));
  // 100 MHz, 4 bytes/beat -> 16 bytes = 4 beats = 40 ns.
  auto [s, f] = bus.reserve_transfer(CoreId{0}, CoreId{1}, 16, 0);
  EXPECT_EQ(s, 0u);
  EXPECT_EQ(f, nanoseconds(40));
}

TEST(SharedBus, ArbitrationOverheadAdds) {
  Kernel k;
  Interconnect bus(k, bus_cfg({mhz(100), 4, 2}));
  auto [s, f] = bus.reserve_transfer(CoreId{0}, CoreId{1}, 4, 0);
  EXPECT_EQ(f - s, nanoseconds(30));  // 1 beat + 2 arbitration cycles
}

TEST(SharedBus, SerializesConcurrentTransfers) {
  Kernel k;
  Interconnect bus(k, bus_cfg({mhz(100), 4, 0}));
  auto [s1, f1] = bus.reserve_transfer(CoreId{0}, CoreId{1}, 4, 0);
  auto [s2, f2] = bus.reserve_transfer(CoreId{2}, CoreId{3}, 4, 0);
  EXPECT_EQ(s2, f1);  // second transfer waits: the centralized bottleneck
  EXPECT_GT(bus.total_contention(), 0u);
  EXPECT_EQ(bus.transfer_count(), 2u);
}

TEST(SharedBus, PartialBeatRoundsUp) {
  Kernel k;
  Interconnect bus(k, bus_cfg({mhz(100), 8, 0}));
  auto [s, f] = bus.reserve_transfer(CoreId{0}, CoreId{1}, 9, 0);
  EXPECT_EQ(f - s, nanoseconds(20));  // 2 beats
}

TEST(MeshNoc, HopCountIsManhattanDistance) {
  const MeshConfig cfg{4, 4, nanoseconds(5), mhz(500), 4};
  // Core ids map row-major onto the mesh: core 0 at (0,0), core 5 at (1,1).
  EXPECT_EQ(hops(cfg, 0, 0), 0u);
  EXPECT_EQ(hops(cfg, 0, 1), 1u);
  EXPECT_EQ(hops(cfg, 0, 5), 2u);
  EXPECT_EQ(hops(cfg, 0, 15), 6u);
  // Cores wrap onto shared nodes (3x2 mesh, 8 cores: 6->0, 7->1), and the
  // route stays the Manhattan distance between the nodes.
  const MeshConfig wrap{3, 2, nanoseconds(5), mhz(500), 4};
  const auto dist = [](std::uint32_t a, std::uint32_t b) {
    return a > b ? a - b : b - a;
  };
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      const std::uint32_t a = s % 6, b = d % 6;
      EXPECT_EQ(hops(wrap, s, d), dist(a % 3, b % 3) + dist(a / 3, b / 3))
          << s << "->" << d;
    }
  }
}

TEST(MeshNoc, RouteWalksXThenYInLinkEncoding) {
  // Link = node*4 + direction (0=+x, 1=-x, 2=+y, 3=-y), node row-major.
  const FabricConfig cfg = mesh_cfg({4, 4, nanoseconds(5), mhz(500), 4});
  const auto route = [&cfg](std::uint32_t s, std::uint32_t d) {
    std::vector<std::size_t> links;
    for_each_route_link(cfg, CoreId{s}, CoreId{d},
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
  Interconnect noc(k, mesh_cfg({4, 4, nanoseconds(5), mhz(500), 4}));
  auto [s, f] = noc.reserve_transfer(CoreId{3}, CoreId{3}, 1024, 0);
  EXPECT_EQ(s, f);
}

TEST(MeshNoc, LatencyGrowsWithDistance) {
  Kernel k;
  Interconnect noc(k, mesh_cfg({8, 8, nanoseconds(5), mhz(500), 4}));
  const auto near = noc.nominal_latency(CoreId{0}, CoreId{1}, 64);
  const auto far = noc.nominal_latency(CoreId{0}, CoreId{63}, 64);
  EXPECT_GT(far, near);
  EXPECT_EQ(far, 14u * near);  // 14 hops vs 1 hop, linear in distance
}

TEST(MeshNoc, DisjointRoutesDoNotContend) {
  Kernel k;
  Interconnect noc(k, mesh_cfg({4, 4, nanoseconds(5), mhz(500), 4}));
  // (0,0)->(1,0) and (2,2)->(3,2): no shared links.
  auto [s1, f1] = noc.reserve_transfer(CoreId{0}, CoreId{1}, 64, 0);
  auto [s2, f2] = noc.reserve_transfer(CoreId{10}, CoreId{11}, 64, 0);
  EXPECT_EQ(s1, s2);  // both start immediately — distributed fabric
  EXPECT_EQ(noc.total_contention(), 0u);
}

TEST(MeshNoc, SharedLinkSerializes) {
  Kernel k;
  Interconnect noc(k, mesh_cfg({4, 4, nanoseconds(5), mhz(500), 4}));
  // Both transfers use link (0,0)->(1,0) first.
  auto [s1, f1] = noc.reserve_transfer(CoreId{0}, CoreId{1}, 64, 0);
  auto [s2, f2] = noc.reserve_transfer(CoreId{0}, CoreId{2}, 64, 0);
  EXPECT_GE(s2, f1);
  EXPECT_GT(noc.total_contention(), 0u);
}

TEST(MeshNoc, EarliestRespected) {
  Kernel k;
  Interconnect noc(k, mesh_cfg({4, 4, nanoseconds(5), mhz(500), 4}));
  auto [s, f] = noc.reserve_transfer(CoreId{0}, CoreId{1}, 4, 12345);
  EXPECT_GE(s, 12345u);
}

TEST(MeshNoc, RejectsZeroDimensions) {
  Kernel k;
  EXPECT_THROW(Interconnect(k, mesh_cfg({0, 4})), std::invalid_argument);
}

TEST(Interconnect, Describe) {
  Kernel k;
  Interconnect bus(k, bus_cfg({}));
  Interconnect noc(k, mesh_cfg({}));
  EXPECT_NE(bus.describe().find("shared-bus"), std::string::npos);
  EXPECT_NE(noc.describe().find("mesh-noc"), std::string::npos);
}

/// Every fabric callback, in arrival order per kind.
struct Recorder final : Observer {
  using Transfer = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t,
                              DurationPs, DurationPs, std::uint32_t>;
  std::vector<Transfer> transfers;
  std::vector<std::pair<std::size_t, DurationPs>> links;

  void on_transfer(CoreId src, CoreId dst, std::uint64_t bytes,
                   DurationPs wait, DurationPs duration,
                   std::uint32_t hops) override {
    transfers.emplace_back(src.value(), dst.value(), bytes, wait, duration,
                           hops);
  }
  void on_link_busy(std::size_t link, DurationPs busy) override {
    links.emplace_back(link, busy);
  }
};

TEST(Interconnect, WrappedCoresDeliverLocally) {
  // 8 cores on a 3x2 mesh: core 6 sits on core 0's node, so 6 -> 0 is a
  // route of no links.
  Kernel k;
  ObserverList observers;
  Recorder rec;
  observers.attach(rec);
  const FabricConfig cfg = mesh_cfg({3, 2, nanoseconds(5), mhz(500), 4});
  Interconnect noc(k, cfg, observers);
  ASSERT_EQ(route_length(cfg, CoreId{6}, CoreId{0}), 0u);
  noc.inject_drops(1);
  const auto [s, f] = noc.reserve_transfer(CoreId{6}, CoreId{0}, 64, 1000);
  EXPECT_EQ(s, 1000u);
  EXPECT_EQ(f, 1000u);
  ASSERT_EQ(rec.transfers.size(), 1u);
  EXPECT_EQ(rec.transfers[0], Recorder::Transfer(6, 0, 64, 0, 0, 0));
  EXPECT_TRUE(rec.links.empty());
  EXPECT_EQ(noc.total_contention(), 0u);
  EXPECT_EQ(noc.transfer_count(), 1u);
  // The drop stays armed for the next transfer that uses a link.
  EXPECT_EQ(noc.packets_dropped(), 0u);
  const auto [s1, f1] = noc.reserve_transfer(CoreId{0}, CoreId{1}, 64, 0);
  EXPECT_EQ(noc.packets_dropped(), 1u);
  EXPECT_EQ(f1 - s1, 2 * link_occupancy(cfg, 64));
}

/// Random transfer sequences on the fabric and on the reference twin
/// (fabric_oracle.hpp) it replaced, compared result by result. Returns
/// how many transfers joined two distinct cores wrapped onto one node.
std::size_t expect_matches_reference(const FabricConfig& cfg,
                                     std::uint32_t cores, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " cores " << cores);
  const bool mesh = cfg.interconnect == FabricConfig::Icn::kMesh;
  Kernel k;
  ObserverList obs, ref_obs;
  Recorder rec, ref_rec;
  obs.attach(rec);
  ref_obs.attach(ref_rec);
  Interconnect fab(k, cfg, obs);
  std::unique_ptr<oracle::Interconnect> ref;
  oracle::MeshNoc* ref_mesh = nullptr;
  if (mesh) {
    auto m = std::make_unique<oracle::MeshNoc>(k, cfg.mesh, ref_obs);
    ref_mesh = m.get();
    ref = std::move(m);
  } else {
    ref = std::make_unique<oracle::SharedBus>(k, cfg.bus, ref_obs);
  }
  static constexpr double kFactors[] = {0.5, 1.0, 1.0, 1.5, 2.0, 3.25};
  Rng rng(seed);
  std::size_t wrapped = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const std::uint64_t op = rng.next_below(12);
    if (op == 0) {  // let simulated time pass
      k.schedule_at(k.now() + rng.next_below(20'000), [] {});
      k.run();
    } else if (op == 1) {
      const double f = kFactors[rng.next_below(6)];
      fab.set_degrade(f);
      ref->set_degrade(f);
    } else if (op == 2 && mesh) {
      const std::size_t link = rng.next_below(link_count(cfg));
      const double f = kFactors[rng.next_below(6)];
      fab.set_link_degrade(link, f);
      ref_mesh->set_link_degrade(link, f);
    } else if (op == 3) {
      const std::uint64_t n = 1 + rng.next_below(2);
      fab.inject_drops(n);
      ref->inject_drops(n);
    } else {
      const CoreId src{static_cast<std::uint32_t>(rng.next_below(cores))};
      const CoreId dst = rng.next_bool(0.2)
                             ? src
                             : CoreId{static_cast<std::uint32_t>(
                                   rng.next_below(cores))};
      const std::uint64_t bytes = 1 + rng.next_below(4096);
      const TimePs jitter = rng.next_below(30'000);
      const TimePs earliest = rng.next_bool(0.5)
                                  ? k.now() + jitter
                                  : (k.now() > jitter ? k.now() - jitter : 0);
      const auto got = fab.reserve_transfer(src, dst, bytes, earliest);
      // The one deliberate difference: distinct cores wrapped onto one
      // node are local delivery, which the twin does for src == dst.
      const bool wrap = mesh && src != dst && route_length(cfg, src, dst) == 0;
      const auto want =
          ref->reserve_transfer(src, wrap ? src : dst, bytes, earliest);
      if (wrap) {
        ++wrapped;
        std::get<1>(ref_rec.transfers.back()) = dst.value();
      }
      EXPECT_EQ(got, want);
      if (got != want) return wrapped;
    }
  }
  EXPECT_EQ(rec.transfers, ref_rec.transfers);
  EXPECT_EQ(rec.links, ref_rec.links);
  EXPECT_EQ(fab.total_contention(), ref->total_contention());
  EXPECT_EQ(fab.transfer_count(), ref->transfer_count());
  EXPECT_EQ(fab.packets_dropped(), ref->packets_dropped());
  EXPECT_GT(fab.transfer_count(), 200u);
  return wrapped;
}

TEST(Interconnect, BusMatchesReferenceRule) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_matches_reference(bus_cfg({}), 4, seed);
    expect_matches_reference(bus_cfg({mhz(100), 4, 0}), 16, seed);
  }
}

TEST(Interconnect, MeshMatchesReferenceRule) {
  const MeshConfig mesh{4, 4, nanoseconds(5), mhz(500), 4};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_matches_reference(mesh_cfg(mesh), 16, seed);
    expect_matches_reference(mesh_cfg({2, 2, 0, mhz(1000), 8}), 4, seed);
  }
}

TEST(Interconnect, WrappedMeshMatchesReferenceRule) {
  // 8 cores on 3x2; ArchInfo::cell_like(8)'s 9 cores on 4x2; 3 on 1x1.
  const std::pair<MeshConfig, std::uint32_t> meshes[] = {
      {{3, 2, nanoseconds(5), mhz(500), 4}, 8},
      {{4, 2, nanoseconds(5), mhz(500), 4}, 9},
      {{1, 1, nanoseconds(5), mhz(500), 4}, 3}};
  for (const auto& [mesh, cores] : meshes) {
    std::size_t wrapped = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
      wrapped += expect_matches_reference(mesh_cfg(mesh), cores, seed);
    EXPECT_GT(wrapped, 20u) << cores << " cores";
  }
}

}  // namespace
}  // namespace rw::sim
