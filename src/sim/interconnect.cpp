#include "sim/interconnect.hpp"

#include <stdexcept>

#include "common/strings.hpp"

namespace rw::sim {

// ------------------------------------------------ static timing model

Status validate_fabric(const FabricConfig& cfg) {
  if (cfg.interconnect == FabricConfig::Icn::kSharedBus) {
    if (cfg.bus.width_bytes == 0)
      return make_error("bus width must be positive");
    return Status::ok_status();
  }
  const MeshConfig& m = cfg.mesh;
  if (m.width == 0 || m.height == 0)
    return make_error("mesh dimensions must be positive");
  if (std::uint64_t{m.width} * m.height > kMaxMeshNodes)
    return make_error(strformat(
        "mesh of %ux%u nodes exceeds the %llu-node limit", m.width, m.height,
        static_cast<unsigned long long>(kMaxMeshNodes)));
  if (m.link_width_bytes == 0)
    return make_error("mesh link width must be positive");
  return Status::ok_status();
}

DurationPs bus_transfer_duration(const BusConfig& cfg, std::uint64_t bytes) {
  const std::uint64_t beats =
      (bytes + cfg.width_bytes - 1) / cfg.width_bytes;
  return cycles_to_ps(cfg.arbitration_cycles + beats, cfg.frequency);
}

DurationPs mesh_serialization_time(const MeshConfig& cfg,
                                   std::uint64_t bytes) {
  const std::uint64_t flits =
      (bytes + cfg.link_width_bytes - 1) / cfg.link_width_bytes;
  return cycles_to_ps(std::max<std::uint64_t>(flits, 1), cfg.link_frequency);
}

std::size_t link_count(const FabricConfig& cfg) {
  if (cfg.interconnect == FabricConfig::Icn::kSharedBus) return 1;
  return static_cast<std::size_t>(cfg.mesh.width) * cfg.mesh.height * 4;
}

DurationPs link_occupancy(const FabricConfig& cfg, std::uint64_t bytes) {
  if (cfg.interconnect == FabricConfig::Icn::kSharedBus)
    return bus_transfer_duration(cfg.bus, bytes);
  return mesh_serialization_time(cfg.mesh, bytes) + cfg.mesh.hop_latency;
}

std::uint32_t route_length(const FabricConfig& cfg, CoreId src, CoreId dst) {
  std::uint32_t links = 0;
  for_each_route_link(cfg, src, dst, [&links](std::size_t) { ++links; });
  return links;
}

DurationPs nominal_latency(const FabricConfig& cfg, CoreId src, CoreId dst,
                           std::uint64_t bytes) {
  const std::uint32_t links = route_length(cfg, src, dst);
  return links == 0 ? 0 : links * link_occupancy(cfg, bytes);
}

std::string link_name(const FabricConfig& cfg, std::size_t link) {
  if (cfg.interconnect == FabricConfig::Icn::kSharedBus) return "bus";
  return "link" + std::to_string(link);
}

std::string describe_fabric(const FabricConfig& cfg) {
  if (cfg.interconnect == FabricConfig::Icn::kSharedBus)
    return strformat("shared-bus(%s, %uB wide)",
                     format_hz(cfg.bus.frequency).c_str(), cfg.bus.width_bytes);
  return strformat("mesh-noc(%ux%u, %s links)", cfg.mesh.width,
                   cfg.mesh.height, format_hz(cfg.mesh.link_frequency).c_str());
}

// ------------------------------------------------------------ live fabric

namespace {

const FabricConfig& checked(const FabricConfig& cfg) {
  if (const Status st = validate_fabric(cfg); !st.ok())
    throw std::invalid_argument(st.error().message);
  return cfg;
}

}  // namespace

Interconnect::Interconnect(Kernel& kernel, const FabricConfig& cfg,
                           const ObserverList& observers)
    : kernel_(kernel),
      cfg_(checked(cfg)),
      observers_(&observers),
      calendar_(link_count(cfg)) {}

void Interconnect::set_link_degrade(std::size_t link, double factor) {
  if (link >= calendar_.size())
    throw std::out_of_range("set_link_degrade: no such link");
  if (link_degrade_.empty()) link_degrade_.assign(calendar_.size(), 1.0);
  link_degrade_[link] = factor < 1.0 ? 1.0 : factor;
}

std::pair<TimePs, TimePs> Interconnect::reserve_transfer(CoreId src,
                                                         CoreId dst,
                                                         std::uint64_t bytes,
                                                         TimePs earliest) {
  // Store-and-forward over the route. The fabric-wide and per-link degrade
  // factors stretch each link's occupancy; an armed packet drop is charged
  // once, on the first link, and a route of no links leaves it armed. Only
  // the first link's wait counts as contention.
  const TimePs ready = std::max(earliest, kernel_.now());
  const DurationPs nominal = link_occupancy(cfg_, bytes);
  const bool exact = degrade_ == 1.0 && link_degrade_.empty();
  const bool drop = pending_drops_ > 0;
  TimePs start = ready;
  TimePs t = ready;
  std::uint32_t links = 0;
  for_each_route_link(cfg_, src, dst, [&](std::size_t link) {
    DurationPs occ = nominal;
    if (!exact) {
      const double f =
          degrade_ * (link < link_degrade_.size() ? link_degrade_[link] : 1.0);
      if (f != 1.0) occ = static_cast<DurationPs>(static_cast<double>(occ) * f);
    }
    if (links == 0 && drop) occ *= 2;
    const auto [s, done] = calendar_.reserve(link, t, occ);
    if (links == 0) {
      start = s;
      contention_ += s - ready;
    }
    for (Observer* o : *observers_) o->on_link_busy(link, done - s);
    t = done;
    ++links;
  });
  if (drop && links > 0) {
    --pending_drops_;
    ++dropped_;
  }
  ++transfers_;
  const std::uint32_t hops = route_hops(cfg_, links);
  for (Observer* o : *observers_)
    o->on_transfer(src, dst, bytes, start - ready, t - start, hops);
  return {start, t};
}

}  // namespace rw::sim
