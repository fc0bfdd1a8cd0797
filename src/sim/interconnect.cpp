#include "sim/interconnect.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strings.hpp"

namespace rw::sim {

// ------------------------------------------------ static timing model

DurationPs bus_transfer_duration(const SharedBus::Config& cfg,
                                 std::uint64_t bytes) {
  const std::uint64_t beats =
      (bytes + cfg.width_bytes - 1) / cfg.width_bytes;
  return cycles_to_ps(cfg.arbitration_cycles + beats, cfg.frequency);
}

DurationPs mesh_serialization_time(const MeshNoc::Config& cfg,
                                   std::uint64_t bytes) {
  const std::uint64_t flits =
      (bytes + cfg.link_width_bytes - 1) / cfg.link_width_bytes;
  return cycles_to_ps(std::max<std::uint64_t>(flits, 1), cfg.link_frequency);
}

DurationPs bus_min_latency(const SharedBus::Config& cfg) {
  return cycles_to_ps(cfg.arbitration_cycles, cfg.frequency);
}

DurationPs mesh_min_latency(const MeshNoc::Config& cfg) {
  return cfg.hop_latency;
}

namespace {

struct MeshCoord {
  std::uint32_t x, y;
};

MeshCoord mesh_coord_of(const MeshNoc::Config& cfg, CoreId c) {
  const std::uint32_t idx = c.value() % (cfg.width * cfg.height);
  return MeshCoord{idx % cfg.width, idx / cfg.width};
}

}  // namespace

std::uint32_t mesh_hops(const MeshNoc::Config& cfg, CoreId src, CoreId dst) {
  const MeshCoord a = mesh_coord_of(cfg, src);
  const MeshCoord b = mesh_coord_of(cfg, dst);
  const auto dx = a.x > b.x ? a.x - b.x : b.x - a.x;
  const auto dy = a.y > b.y ? a.y - b.y : b.y - a.y;
  return dx + dy;
}

// ---------------------------------------------------------------- SharedBus

DurationPs SharedBus::transfer_duration(std::uint64_t bytes) const {
  return bus_transfer_duration(cfg_, bytes);
}

std::pair<TimePs, TimePs> SharedBus::reserve_transfer(CoreId src, CoreId dst,
                                                      std::uint64_t bytes,
                                                      TimePs earliest) {
  const TimePs ready = std::max(earliest, kernel_.now());
  const TimePs start = std::max(ready, busy_until_);
  contention_ += start - ready;
  const TimePs finish = start + faulted(transfer_duration(bytes));
  busy_until_ = finish;
  ++transfers_;
  for (Observer* o : *observers_) {
    o->on_transfer(src, dst, bytes, start - ready, finish - start,
                   /*hops=*/0);
    o->on_link_busy(0, finish - start);
  }
  return {start, finish};
}

DurationPs SharedBus::nominal_latency(CoreId, CoreId,
                                      std::uint64_t bytes) const {
  return transfer_duration(bytes);
}

std::string SharedBus::describe() const {
  return strformat("shared-bus(%s, %uB wide)", format_hz(cfg_.frequency).c_str(),
                   cfg_.width_bytes);
}

// ------------------------------------------------------------------ MeshNoc

MeshNoc::MeshNoc(Kernel& kernel, Config cfg, const ObserverList& observers)
    : Interconnect(observers), kernel_(kernel), cfg_(cfg) {
  if (cfg_.width == 0 || cfg_.height == 0)
    throw std::invalid_argument("mesh dimensions must be positive");
  // Four directed links per node is an upper bound; unused slots stay idle.
  link_busy_until_.assign(link_count(cfg_), 0);
}

std::uint32_t MeshNoc::hop_count(CoreId src, CoreId dst) const {
  return mesh_hops(cfg_, src, dst);
}

void MeshNoc::set_link_degrade(std::size_t link, double factor) {
  if (link >= link_busy_until_.size())
    throw std::out_of_range("set_link_degrade: no such link");
  if (link_degrade_.empty()) link_degrade_.assign(link_busy_until_.size(), 1.0);
  link_degrade_[link] = factor < 1.0 ? 1.0 : factor;
}

DurationPs MeshNoc::serialization_time(std::uint64_t bytes) const {
  return mesh_serialization_time(cfg_, bytes);
}

std::pair<TimePs, TimePs> MeshNoc::reserve_transfer(CoreId src, CoreId dst,
                                                    std::uint64_t bytes,
                                                    TimePs earliest) {
  const TimePs ready = std::max(earliest, kernel_.now());
  if (src == dst) {
    // Local delivery: no links used.
    ++transfers_;
    for (Observer* o : *observers_) o->on_transfer(src, dst, bytes, 0, 0, 0);
    return {ready, ready};
  }
  // Store-and-forward per hop: each link is reserved in sequence for the
  // message's serialization time plus the hop latency. Fault model: the
  // fabric-wide and per-link degrade factors stretch each link's
  // occupancy; an armed packet drop is charged once, on the first link
  // (drop + retransmit at the injecting router).
  const DurationPs ser = serialization_time(bytes);
  bool charge_drop = pending_drops_ > 0;
  if (charge_drop) {
    --pending_drops_;
    ++dropped_;
  }
  TimePs t = ready;
  TimePs first_start = 0;
  bool first = true;
  std::uint32_t hops = 0;
  for_each_mesh_link(cfg_, src, dst, [&](std::size_t link) {
    const TimePs start = std::max(t, link_busy_until_[link]);
    if (first) {
      first_start = start;
      contention_ += start - ready;
    }
    DurationPs occ = ser + cfg_.hop_latency;
    const double f =
        degrade_ * (link < link_degrade_.size() ? link_degrade_[link] : 1.0);
    if (f != 1.0) occ = static_cast<DurationPs>(static_cast<double>(occ) * f);
    if (first && charge_drop) occ *= 2;
    first = false;
    const TimePs done = start + occ;
    link_busy_until_[link] = done;
    for (Observer* o : *observers_) o->on_link_busy(link, done - start);
    t = done;
    ++hops;
  });
  ++transfers_;
  for (Observer* o : *observers_)
    o->on_transfer(src, dst, bytes, first_start - ready, t - first_start,
                   hops);
  return {first_start, t};
}

DurationPs MeshNoc::nominal_latency(CoreId src, CoreId dst,
                                    std::uint64_t bytes) const {
  const std::uint32_t hops = hop_count(src, dst);
  if (hops == 0) return 0;
  return hops * (serialization_time(bytes) + cfg_.hop_latency);
}

std::string MeshNoc::describe() const {
  return strformat("mesh-noc(%ux%u, %s links)", cfg_.width, cfg_.height,
                   format_hz(cfg_.link_frequency).c_str());
}

}  // namespace rw::sim
