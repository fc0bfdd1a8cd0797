// DVFS governor for time-shared cores.
//
// Sec. II-A: "the frequency at which each core executes shall be
// modifiable at a fine-grain level during program execution and according
// to the needs of the executing application(s)". Two policies are
// provided: an analysis-driven governor that picks the lowest frequency
// passing response-time analysis (predictable, for hard-RT cores), and a
// reactive step governor that boosts under load and relaxes when idle
// (for best-effort cores).
#pragma once

#include <optional>
#include <vector>

#include "common/units.hpp"
#include "sched/task.hpp"

namespace rw::sched {

/// Discrete operating points, ascending.
struct FrequencyLadder {
  std::vector<HertzT> levels;

  [[nodiscard]] HertzT lowest() const { return levels.front(); }
  [[nodiscard]] HertzT highest() const { return levels.back(); }
  /// Next level up/down from f (clamped).
  [[nodiscard]] HertzT step_up(HertzT f) const;
  [[nodiscard]] HertzT step_down(HertzT f) const;

  static FrequencyLadder typical();  // 200/400/600/800/1000/1600/2000 MHz
};

/// Analysis-driven choice: the lowest ladder level at which `ts` passes
/// response-time analysis. Returns nullopt when even the highest fails
/// (the set must be rejected, not run hopefully).
std::optional<HertzT> governor_pick_frequency(const TaskSet& ts,
                                              const FrequencyLadder& ladder,
                                              Cycles switch_overhead = 0);

/// Reactive utilization governor: classic step-up/step-down hysteresis.
/// Feed it utilization observations; it answers with the level to run at.
class ReactiveGovernor {
 public:
  ReactiveGovernor(FrequencyLadder ladder, double up_threshold = 0.85,
                   double down_threshold = 0.30);

  /// Observe utilization over the last window; returns the new frequency.
  HertzT observe(double utilization);

  /// Observe a window measured in PMU terms — busy time within a window of
  /// simulated time (the shape a perf::Epoch delta provides). A zero-width
  /// window is a no-observation: the frequency is left unchanged.
  HertzT observe_window(DurationPs busy_ps, DurationPs window_ps);

  [[nodiscard]] HertzT current() const { return current_; }
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

 private:
  FrequencyLadder ladder_;
  double up_threshold_;
  double down_threshold_;
  HertzT current_;
  std::uint64_t transitions_ = 0;
};

/// Energy model: dynamic power ~ f * V^2 with V ~ f gives energy per cycle
/// ~ f^2 (normalized). Used by benches to report the boost/energy tradeoff.
double relative_energy_per_cycle(HertzT f, HertzT nominal);

}  // namespace rw::sched
