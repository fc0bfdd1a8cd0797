#include "sched/dvfs.hpp"

#include <algorithm>
#include <stdexcept>

#include "sched/analysis.hpp"

namespace rw::sched {

HertzT FrequencyLadder::step_up(HertzT f) const {
  for (const HertzT l : levels)
    if (l > f) return l;
  return highest();
}

HertzT FrequencyLadder::step_down(HertzT f) const {
  HertzT best = lowest();
  for (const HertzT l : levels) {
    if (l >= f) break;
    best = l;
  }
  return best;
}

FrequencyLadder FrequencyLadder::typical() {
  return FrequencyLadder{{mhz(200), mhz(400), mhz(600), mhz(800), mhz(1000),
                          mhz(1600), mhz(2000)}};
}

std::optional<HertzT> governor_pick_frequency(const TaskSet& ts,
                                              const FrequencyLadder& ladder,
                                              Cycles switch_overhead) {
  for (const HertzT f : ladder.levels) {
    TaskSet copy = ts;
    copy.frequency = f;
    if (response_time_analysis(copy, switch_overhead).all_schedulable(copy))
      return f;
  }
  return std::nullopt;
}

ReactiveGovernor::ReactiveGovernor(FrequencyLadder ladder,
                                   double up_threshold,
                                   double down_threshold)
    : ladder_(std::move(ladder)),
      up_threshold_(up_threshold),
      down_threshold_(down_threshold),
      current_(0) {
  if (ladder_.levels.empty())
    throw std::invalid_argument("frequency ladder must not be empty");
  if (!std::is_sorted(ladder_.levels.begin(), ladder_.levels.end()))
    throw std::invalid_argument("frequency ladder must ascend");
  if (down_threshold_ >= up_threshold_)
    throw std::invalid_argument("governor thresholds must be ordered");
  current_ = ladder_.lowest();
}

HertzT ReactiveGovernor::observe(double utilization) {
  HertzT next = current_;
  if (utilization > up_threshold_) {
    next = ladder_.step_up(current_);
  } else if (utilization < down_threshold_) {
    next = ladder_.step_down(current_);
  }
  if (next != current_) {
    current_ = next;
    ++transitions_;
  }
  return current_;
}

HertzT ReactiveGovernor::observe_window(DurationPs busy_ps,
                                        DurationPs window_ps) {
  if (window_ps == 0) return current_;
  return observe(static_cast<double>(busy_ps) /
                 static_cast<double>(window_ps));
}

double relative_energy_per_cycle(HertzT f, HertzT nominal) {
  if (nominal == 0) return 0.0;
  const double r = static_cast<double>(f) / static_cast<double>(nominal);
  return r * r;
}

}  // namespace rw::sched
