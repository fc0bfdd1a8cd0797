// On-chip interconnect models: shared bus and 2-D mesh NoC.
//
// Sec. II-A asks for a "scalable, fast and low-latency chip interconnect"
// and warns that centralized constructs inhibit scalability. Both claims
// need a contention model to be testable: the shared bus serializes all
// traffic (the centralized construct), the mesh distributes it. Transfers
// are modelled transactionally: a reservation returns start/finish times
// honouring prior traffic on each resource.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"

namespace rw::sim {

/// Abstract transfer fabric between cores.
class Interconnect {
 public:
  virtual ~Interconnect() = default;

  /// Reserve fabric resources for a `bytes`-sized transfer from core
  /// `src` to core `dst` starting no earlier than `earliest`.
  /// Returns {start, finish}.
  virtual std::pair<TimePs, TimePs> reserve_transfer(CoreId src, CoreId dst,
                                                     std::uint64_t bytes,
                                                     TimePs earliest) = 0;

  /// Pure latency (no contention) of such a transfer, for planners.
  [[nodiscard]] virtual DurationPs nominal_latency(
      CoreId src, CoreId dst, std::uint64_t bytes) const = 0;

  [[nodiscard]] virtual std::string describe() const = 0;

  /// Aggregate time transfers spent waiting for busy fabric resources.
  [[nodiscard]] DurationPs total_contention() const { return contention_; }
  [[nodiscard]] std::uint64_t transfer_count() const { return transfers_; }

  /// Fault model (rw::fault). set_degrade() scales every subsequent
  /// transfer's occupancy by `factor` (>= 1.0; 1.0 restores nominal) —
  /// a degraded link that still delivers, just slower. inject_drops()
  /// arms the next `n` transfers to each lose one packet: the transfer
  /// occupies the fabric twice as long (drop + retransmit) and counts in
  /// packets_dropped(). nominal_latency() stays un-faulted on purpose:
  /// it is the *planner's* view, and the gap between plan and faulted
  /// reality is exactly what E14 measures.
  void set_degrade(double factor) { degrade_ = factor < 1.0 ? 1.0 : factor; }
  void inject_drops(std::uint64_t n) { pending_drops_ += n; }
  [[nodiscard]] double degrade_factor() const { return degrade_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }

 protected:
  /// `observers` is the list of the platform the fabric belongs to.
  explicit Interconnect(const ObserverList& observers)
      : observers_(&observers) {}

  /// Apply the fault model to a nominal occupancy. Consumes one pending
  /// drop if armed (retransmit doubles the time on the wire).
  [[nodiscard]] DurationPs faulted(DurationPs nominal) {
    if (degrade_ == 1.0 && pending_drops_ == 0) return nominal;  // exact
    auto d = static_cast<DurationPs>(static_cast<double>(nominal) * degrade_);
    if (pending_drops_ > 0) {
      --pending_drops_;
      ++dropped_;
      d *= 2;
    }
    return d;
  }

  DurationPs contention_ = 0;
  std::uint64_t transfers_ = 0;
  double degrade_ = 1.0;
  std::uint64_t pending_drops_ = 0;
  std::uint64_t dropped_ = 0;
  const ObserverList* observers_;
};

/// Single shared bus: every transfer serializes through one arbiter —
/// the archetypal "centralized construct".
class SharedBus final : public Interconnect {
 public:
  struct Config {
    HertzT frequency = mhz(200);
    std::uint32_t width_bytes = 8;     // bytes moved per bus cycle
    Cycles arbitration_cycles = 4;     // per-transfer arbitration overhead
  };

  SharedBus(Kernel& kernel, Config cfg,
            const ObserverList& observers = kNoObservers)
      : Interconnect(observers), kernel_(kernel), cfg_(cfg) {}

  std::pair<TimePs, TimePs> reserve_transfer(CoreId src, CoreId dst,
                                             std::uint64_t bytes,
                                             TimePs earliest) override;
  [[nodiscard]] DurationPs nominal_latency(
      CoreId src, CoreId dst, std::uint64_t bytes) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  [[nodiscard]] DurationPs transfer_duration(std::uint64_t bytes) const;

  Kernel& kernel_;
  Config cfg_;
  TimePs busy_until_ = 0;
};

/// 2-D mesh NoC with dimension-ordered (XY) routing and per-link
/// serialization; distributed by construction.
class MeshNoc final : public Interconnect {
 public:
  struct Config {
    std::uint32_t width = 4;         // mesh columns
    std::uint32_t height = 4;        // mesh rows
    DurationPs hop_latency = nanoseconds(5);
    HertzT link_frequency = mhz(500);
    std::uint32_t link_width_bytes = 4;
  };

  MeshNoc(Kernel& kernel, Config cfg,
          const ObserverList& observers = kNoObservers);

  std::pair<TimePs, TimePs> reserve_transfer(CoreId src, CoreId dst,
                                             std::uint64_t bytes,
                                             TimePs earliest) override;
  [[nodiscard]] DurationPs nominal_latency(
      CoreId src, CoreId dst, std::uint64_t bytes) const override;
  [[nodiscard]] std::string describe() const override;

  /// Number of mesh hops between two cores (XY route length).
  [[nodiscard]] std::uint32_t hop_count(CoreId src, CoreId dst) const;

  /// Per-link fault: scale the occupancy of one directed link (on top of
  /// the fabric-wide set_degrade factor). factor < 1.0 clamps to 1.0.
  void set_link_degrade(std::size_t link, double factor);
  [[nodiscard]] std::size_t num_links() const {
    return link_busy_until_.size();
  }
  /// The directed-link count of a mesh built from `cfg`: four per node.
  [[nodiscard]] static std::size_t link_count(const Config& cfg) {
    return static_cast<std::size_t>(cfg.width) * cfg.height * 4;
  }

 private:
  [[nodiscard]] DurationPs serialization_time(std::uint64_t bytes) const;

  Kernel& kernel_;
  Config cfg_;
  std::vector<TimePs> link_busy_until_;
  std::vector<double> link_degrade_;  // lazily sized; empty == all nominal
};

/// Static fabric timing model, exposed as pure functions of the configs so
/// planners (maps::comm_cost_from_platform) and trace-driven analysis
/// (rw::critpath) use exactly the arithmetic the live fabric uses — any
/// drift would silently bias mappings and what-if predictions, so the
/// member functions delegate here.
[[nodiscard]] DurationPs bus_transfer_duration(const SharedBus::Config& cfg,
                                               std::uint64_t bytes);
[[nodiscard]] DurationPs mesh_serialization_time(const MeshNoc::Config& cfg,
                                                 std::uint64_t bytes);
/// Call `fn(link)` for each directed link of the XY route between two
/// cores under `cfg`'s geometry, in route order (same encoding as MeshNoc:
/// node*4 + direction, with directions 0=+x, 1=-x, 2=+y, 3=-y). X first,
/// then Y: a deterministic, deadlock-free dimension ordering. Cores map
/// row-major onto the nodes, wrapping when there are more cores than
/// nodes. Allocates nothing.
template <typename Fn>
void for_each_mesh_link(const MeshNoc::Config& cfg, CoreId src, CoreId dst,
                        Fn&& fn) {
  const std::uint32_t nodes = cfg.width * cfg.height;
  const std::uint32_t from = src.value() % nodes;
  const std::uint32_t to = dst.value() % nodes;
  std::uint32_t x = from % cfg.width;
  std::uint32_t y = from / cfg.width;
  const std::uint32_t ex = to % cfg.width;
  const std::uint32_t ey = to / cfg.width;
  const auto link = [&cfg](std::uint32_t nx, std::uint32_t ny,
                           std::size_t dir) {
    return (static_cast<std::size_t>(ny) * cfg.width + nx) * 4 + dir;
  };
  for (; x < ex; ++x) fn(link(x, y, 0));
  for (; x > ex; --x) fn(link(x, y, 1));
  for (; y < ey; ++y) fn(link(x, y, 2));
  for (; y > ey; --y) fn(link(x, y, 3));
}
/// Length of that route (Manhattan distance), without building it. Distinct
/// cores that wrap onto one node are zero hops apart.
[[nodiscard]] std::uint32_t mesh_hops(const MeshNoc::Config& cfg, CoreId src,
                                      CoreId dst);

/// Smallest latency the fabric can impose on any cross-core message — the
/// conservative lookahead floor of the tiled engine (parallel.hpp). For
/// the bus it is the per-transfer arbitration overhead (paid before the
/// first beat lands); for the mesh it is one hop's latency. A config that
/// makes these zero cannot bound cross-tile causality and is rejected by
/// validate_tiling().
[[nodiscard]] DurationPs bus_min_latency(const SharedBus::Config& cfg);
[[nodiscard]] DurationPs mesh_min_latency(const MeshNoc::Config& cfg);

}  // namespace rw::sim
