// PMU-driven DVFS: the first in-simulation consumer of the metrics
// pipeline.
//
// Each core gets a sched::ReactiveGovernor fed from PMU busy-time deltas
// over fixed windows — the software-stack shape Sec. II-A implies, where
// the run-time reads performance counters and adjusts per-core frequency
// "according to the needs of the executing application(s)". Because the
// decisions come from the Pmu (not from core internals), this is also the
// proof that the counter pipeline is live: detach the PMU and the governor
// has nothing to act on.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "perf/pmu.hpp"
#include "sched/dvfs.hpp"
#include "sim/platform.hpp"

namespace rw::perf {

struct GovernorConfig {
  DurationPs window = microseconds(20);
  sched::FrequencyLadder ladder = sched::FrequencyLadder::typical();
};

class PmuGovernor {
 public:
  PmuGovernor(sim::Platform& platform, const Pmu& pmu, GovernorConfig cfg);

  /// Schedule the first decision tick (idempotent).
  void start();

  /// Frequency transitions applied across all cores.
  [[nodiscard]] std::uint64_t transitions() const;
  [[nodiscard]] std::uint64_t windows_observed() const { return windows_; }
  [[nodiscard]] const GovernorConfig& config() const { return cfg_; }

 private:
  void tick();

  sim::Platform& platform_;
  const Pmu& pmu_;
  GovernorConfig cfg_;
  bool started_ = false;
  std::uint64_t windows_ = 0;
  std::vector<sched::ReactiveGovernor> per_core_;
  std::vector<DurationPs> prev_busy_ps_;
};

}  // namespace rw::perf
