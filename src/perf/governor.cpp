#include "perf/governor.hpp"

namespace rw::perf {

PmuGovernor::PmuGovernor(sim::Platform& platform, const Pmu& pmu,
                         GovernorConfig cfg)
    : platform_(platform), pmu_(pmu), cfg_(std::move(cfg)) {
  if (cfg_.window == 0) cfg_.window = microseconds(20);
  per_core_.reserve(platform_.core_count());
  prev_busy_ps_.assign(platform_.core_count(), 0);
  for (std::size_t i = 0; i < platform_.core_count(); ++i)
    per_core_.emplace_back(cfg_.ladder);
}

void PmuGovernor::start() {
  if (started_) return;
  started_ = true;
  // Priority 120: decide after the profiler (100) and epoch collector
  // (110) have observed the same instant.
  platform_.kernel().schedule_daemon_in(
      cfg_.window, [this] { tick(); }, /*priority=*/120);
}

void PmuGovernor::tick() {
  auto& kernel = platform_.kernel();
  ++windows_;
  for (std::size_t i = 0; i < per_core_.size(); ++i) {
    const DurationPs busy = pmu_.core(i).busy_ps;
    const DurationPs busy_in_window = busy - prev_busy_ps_[i];
    prev_busy_ps_[i] = busy;
    const HertzT f =
        per_core_[i].observe_window(busy_in_window, cfg_.window);
    platform_.core(i).set_frequency(f);
  }
  kernel.schedule_daemon_in(cfg_.window, [this] { tick(); },
                            /*priority=*/120);
}

std::uint64_t PmuGovernor::transitions() const {
  std::uint64_t n = 0;
  for (const auto& g : per_core_) n += g.transitions();
  return n;
}

}  // namespace rw::perf
