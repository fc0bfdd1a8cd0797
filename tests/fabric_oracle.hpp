// The reference fabric for the differential tests (test_sim_interconnect):
// the two reservation rules sim::Interconnect replaced, kept as they were
// written — an abstract Interconnect with a SharedBus (one busy-until time)
// and a MeshNoc (busy-until per link, XY store-and-forward), each with its
// own loop and fault handling. They call the product's timing formulas
// (sim::bus_transfer_duration, sim::mesh_serialization_time), which the
// rewrite left alone. The unified fabric must reproduce every result of
// these twins, except where the mesh twin routes two distinct cores
// wrapped onto one node: it returns a start of 0 and consumes a pending
// drop, where the fabric delivers locally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/interconnect.hpp"

namespace rw::sim::oracle {

class Interconnect {
 public:
  virtual ~Interconnect() = default;
  virtual std::pair<TimePs, TimePs> reserve_transfer(CoreId src, CoreId dst,
                                                     std::uint64_t bytes,
                                                     TimePs earliest) = 0;

  [[nodiscard]] DurationPs total_contention() const { return contention_; }
  [[nodiscard]] std::uint64_t transfer_count() const { return transfers_; }
  void set_degrade(double factor) { degrade_ = factor < 1.0 ? 1.0 : factor; }
  void inject_drops(std::uint64_t n) { pending_drops_ += n; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }

 protected:
  explicit Interconnect(const ObserverList& observers)
      : observers_(&observers) {}

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

class SharedBus final : public Interconnect {
 public:
  SharedBus(Kernel& kernel, BusConfig cfg, const ObserverList& observers)
      : Interconnect(observers), kernel_(kernel), cfg_(cfg) {}

  std::pair<TimePs, TimePs> reserve_transfer(CoreId src, CoreId dst,
                                             std::uint64_t bytes,
                                             TimePs earliest) override {
    const TimePs ready = std::max(earliest, kernel_.now());
    const TimePs start = std::max(ready, busy_until_);
    contention_ += start - ready;
    const TimePs finish =
        start + faulted(bus_transfer_duration(cfg_, bytes));
    busy_until_ = finish;
    ++transfers_;
    for (Observer* o : *observers_) {
      o->on_transfer(src, dst, bytes, start - ready, finish - start,
                     /*hops=*/0);
      o->on_link_busy(0, finish - start);
    }
    return {start, finish};
  }

 private:
  Kernel& kernel_;
  BusConfig cfg_;
  TimePs busy_until_ = 0;
};

class MeshNoc final : public Interconnect {
 public:
  MeshNoc(Kernel& kernel, MeshConfig cfg, const ObserverList& observers)
      : Interconnect(observers),
        kernel_(kernel),
        cfg_(cfg),
        link_busy_until_(static_cast<std::size_t>(cfg.width) * cfg.height * 4,
                         0) {}

  void set_link_degrade(std::size_t link, double factor) {
    if (link_degrade_.empty())
      link_degrade_.assign(link_busy_until_.size(), 1.0);
    link_degrade_[link] = factor < 1.0 ? 1.0 : factor;
  }

  std::pair<TimePs, TimePs> reserve_transfer(CoreId src, CoreId dst,
                                             std::uint64_t bytes,
                                             TimePs earliest) override {
    const TimePs ready = std::max(earliest, kernel_.now());
    if (src == dst) {
      ++transfers_;
      for (Observer* o : *observers_) o->on_transfer(src, dst, bytes, 0, 0, 0);
      return {ready, ready};
    }
    const DurationPs ser = mesh_serialization_time(cfg_, bytes);
    bool charge_drop = pending_drops_ > 0;
    if (charge_drop) {
      --pending_drops_;
      ++dropped_;
    }
    TimePs t = ready;
    TimePs first_start = 0;
    bool first = true;
    std::uint32_t hops = 0;
    for_each_mesh_link(src, dst, [&](std::size_t link) {
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

 private:
  template <typename Fn>
  void for_each_mesh_link(CoreId src, CoreId dst, Fn&& fn) const {
    const std::uint32_t nodes = cfg_.width * cfg_.height;
    const std::uint32_t from = src.value() % nodes;
    const std::uint32_t to = dst.value() % nodes;
    std::uint32_t x = from % cfg_.width;
    std::uint32_t y = from / cfg_.width;
    const std::uint32_t ex = to % cfg_.width;
    const std::uint32_t ey = to / cfg_.width;
    const auto link = [this](std::uint32_t nx, std::uint32_t ny,
                             std::size_t dir) {
      return (static_cast<std::size_t>(ny) * cfg_.width + nx) * 4 + dir;
    };
    for (; x < ex; ++x) fn(link(x, y, 0));
    for (; x > ex; --x) fn(link(x, y, 1));
    for (; y < ey; ++y) fn(link(x, y, 2));
    for (; y > ey; --y) fn(link(x, y, 3));
  }

  Kernel& kernel_;
  MeshConfig cfg_;
  std::vector<TimePs> link_busy_until_;
  std::vector<double> link_degrade_;  // lazily sized; empty == all nominal
};

}  // namespace rw::sim::oracle
