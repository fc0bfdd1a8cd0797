// On-chip interconnect: one fabric model for the shared bus and the 2-D
// mesh NoC.
//
// Sec. II-A asks for a "scalable, fast and low-latency chip interconnect"
// and warns that centralized constructs inhibit scalability. Both claims
// need a contention model to be testable. Transfers are modelled
// transactionally as a route over directed links: each link on the route
// is reserved in turn (store-and-forward) for the transfer's per-link
// occupancy, honouring prior traffic on it. The shared bus is the one-link
// case: every route is link 0, so all traffic serializes through one
// arbiter (the centralized construct). The mesh routes XY over its links,
// so disjoint routes never meet (the distributed fabric).
//
// The route, the per-link occupancy and the link count are functions of
// the config alone, and LinkCalendar is the reservation rule. Planners
// (maps::comm_cost_from_platform), trace replay (rw::critpath) and fault
// plans call them, so they use exactly the rule the live fabric uses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"

namespace rw::sim {

/// Single shared bus.
struct BusConfig {
  HertzT frequency = mhz(200);
  std::uint32_t width_bytes = 8;     // bytes moved per bus cycle
  Cycles arbitration_cycles = 4;     // per-transfer arbitration overhead
};

/// 2-D mesh NoC with dimension-ordered (XY) routing.
struct MeshConfig {
  std::uint32_t width = 4;         // mesh columns
  std::uint32_t height = 4;        // mesh rows
  DurationPs hop_latency = nanoseconds(5);
  HertzT link_frequency = mhz(500);
  std::uint32_t link_width_bytes = 4;
};

/// The fabric fields of a PlatformConfig (which derives from this).
struct FabricConfig {
  enum class Icn { kSharedBus, kMesh } interconnect = Icn::kSharedBus;
  BusConfig bus;
  MeshConfig mesh;
};

/// Most mesh nodes a fabric may have: the link calendar holds four links
/// per node, so this caps it at 2 MiB.
inline constexpr std::uint64_t kMaxMeshNodes = std::uint64_t{1} << 16;

/// Typed check of the active fabric's dimensions: a positive bus width,
/// or a mesh of 1..kMaxMeshNodes nodes with a positive link width. Every
/// timing and route function below divides by these.
[[nodiscard]] Status validate_fabric(const FabricConfig& cfg);

[[nodiscard]] DurationPs bus_transfer_duration(const BusConfig& cfg,
                                               std::uint64_t bytes);
[[nodiscard]] DurationPs mesh_serialization_time(const MeshConfig& cfg,
                                                 std::uint64_t bytes);

/// Directed links of the fabric: 1 on the bus, width*height*4 on the mesh
/// (four per node is an upper bound; unused slots stay idle).
[[nodiscard]] std::size_t link_count(const FabricConfig& cfg);

/// Time one link is occupied by a `bytes`-sized transfer: arbitration plus
/// beats on the bus; serialization plus the hop latency on a mesh link.
[[nodiscard]] DurationPs link_occupancy(const FabricConfig& cfg,
                                        std::uint64_t bytes);

/// Call `fn(link)` for each link of the route between two cores, in route
/// order. On the bus the route is always link 0, a core's transfer to
/// itself included. On the mesh it is the XY walk: links are node*4 +
/// direction (0=+x, 1=-x, 2=+y, 3=-y), X first, then Y — a deterministic,
/// deadlock-free dimension ordering. Cores map row-major onto the nodes,
/// wrapping when there are more cores than nodes, so a core's route to
/// itself or to a core on its node is empty. Allocates nothing.
template <typename Fn>
void for_each_route_link(const FabricConfig& cfg, CoreId src, CoreId dst,
                         Fn&& fn) {
  if (cfg.interconnect == FabricConfig::Icn::kSharedBus) {
    fn(std::size_t{0});
    return;
  }
  const MeshConfig& m = cfg.mesh;
  const std::uint32_t nodes = m.width * m.height;
  const std::uint32_t from = src.value() % nodes;
  const std::uint32_t to = dst.value() % nodes;
  std::uint32_t x = from % m.width;
  std::uint32_t y = from / m.width;
  const std::uint32_t ex = to % m.width;
  const std::uint32_t ey = to / m.width;
  const auto link = [&m](std::uint32_t nx, std::uint32_t ny, std::size_t dir) {
    return (static_cast<std::size_t>(ny) * m.width + nx) * 4 + dir;
  };
  for (; x < ex; ++x) fn(link(x, y, 0));
  for (; x > ex; --x) fn(link(x, y, 1));
  for (; y < ey; ++y) fn(link(x, y, 2));
  for (; y > ey; --y) fn(link(x, y, 3));
}

/// Number of links on that route.
[[nodiscard]] std::uint32_t route_length(const FabricConfig& cfg, CoreId src,
                                         CoreId dst);

/// Router hops of a route of `links` links: one per mesh link, none on the
/// bus, which has no routers. Observer::on_transfer reports it.
[[nodiscard]] inline std::uint32_t route_hops(const FabricConfig& cfg,
                                              std::uint32_t links) {
  return cfg.interconnect == FabricConfig::Icn::kMesh ? links : 0;
}

/// Pure latency (no contention, no faults) of a transfer: the route's
/// link count times the per-link occupancy. The planner's view.
[[nodiscard]] DurationPs nominal_latency(const FabricConfig& cfg, CoreId src,
                                         CoreId dst, std::uint64_t bytes);

/// Name of a link in reports: "bus" for the bus, "link<i>" on the mesh.
[[nodiscard]] std::string link_name(const FabricConfig& cfg, std::size_t link);

/// One-line description: "shared-bus(200MHz, 8B wide)" or
/// "mesh-noc(4x4, 500MHz links)".
[[nodiscard]] std::string describe_fabric(const FabricConfig& cfg);

/// Busy-until time of each link: the fabric's one reservation rule.
class LinkCalendar {
 public:
  explicit LinkCalendar(std::size_t links) : busy_until_(links, 0) {}

  /// Book `link` for `occupancy` from the first instant it is free and
  /// not before `ready`. Returns {start, finish}.
  std::pair<TimePs, TimePs> reserve(std::size_t link, TimePs ready,
                                    DurationPs occupancy) {
    const TimePs start = std::max(ready, busy_until_[link]);
    busy_until_[link] = start + occupancy;
    return {start, busy_until_[link]};
  }

  [[nodiscard]] std::size_t size() const { return busy_until_.size(); }

 private:
  std::vector<TimePs> busy_until_;
};

/// The live transfer fabric between cores.
class Interconnect {
 public:
  /// `observers` is the list of the platform the fabric belongs to.
  Interconnect(Kernel& kernel, const FabricConfig& cfg,
               const ObserverList& observers = kNoObservers);

  /// Reserve the route of a `bytes`-sized transfer from core `src` to core
  /// `dst` starting no earlier than `earliest` (nor before now). Returns
  /// {start, finish}: the first link's start and the last link's finish.
  /// An empty route is local delivery at {ready, ready}.
  std::pair<TimePs, TimePs> reserve_transfer(CoreId src, CoreId dst,
                                             std::uint64_t bytes,
                                             TimePs earliest);

  /// sim::nominal_latency under this fabric's config.
  [[nodiscard]] DurationPs nominal_latency(CoreId src, CoreId dst,
                                           std::uint64_t bytes) const {
    return sim::nominal_latency(cfg_, src, dst, bytes);
  }

  [[nodiscard]] std::string describe() const { return describe_fabric(cfg_); }

  /// Aggregate time transfers spent waiting for their first link.
  [[nodiscard]] DurationPs total_contention() const { return contention_; }
  [[nodiscard]] std::uint64_t transfer_count() const { return transfers_; }

  /// Fault model (rw::fault). set_degrade() scales every subsequent link
  /// occupancy by `factor` (>= 1.0; 1.0 restores nominal) — a degraded
  /// fabric that still delivers, just slower. set_link_degrade() scales
  /// one link on top of that. inject_drops() arms the next `n` transfers
  /// that use a link to each lose one packet: the first link is occupied
  /// twice as long (drop + retransmit at the injecting end) and the drop
  /// counts in packets_dropped(). nominal_latency() stays un-faulted on
  /// purpose: it is the *planner's* view, and the gap between plan and
  /// faulted reality is exactly what E14 measures.
  void set_degrade(double factor) { degrade_ = factor < 1.0 ? 1.0 : factor; }
  void set_link_degrade(std::size_t link, double factor);
  void inject_drops(std::uint64_t n) { pending_drops_ += n; }
  [[nodiscard]] double degrade_factor() const { return degrade_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }

 private:
  Kernel& kernel_;
  FabricConfig cfg_;
  const ObserverList* observers_;
  LinkCalendar calendar_;
  std::vector<double> link_degrade_;  // lazily sized; empty == all nominal
  DurationPs contention_ = 0;
  std::uint64_t transfers_ = 0;
  double degrade_ = 1.0;
  std::uint64_t pending_drops_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace rw::sim
