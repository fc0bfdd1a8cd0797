// Real-time task model (Sec. II / Sec. III).
//
// Two kinds of computing demand, exactly as the paper frames them:
// sequential RT tasks that are time-shared on a core, and malleable
// parallel applications that want a gang of space-shared cores. The model
// carries everything the analyses need: WCET in cycles (frequency-
// independent, so DVFS experiments can rescale), period, relative deadline
// and criticality.
#pragma once

#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace rw::sched {

struct TaskTag {};
using TaskId = Id<TaskTag>;

/// Criticality classes: MAPS (Sec. IV) schedules hard-RT statically and
/// soft/best-effort dynamically; the hybrid scheduler uses the same split.
enum class Criticality : std::uint8_t { kHard, kSoft, kBestEffort };

/// Periodic (or sporadic, reading `period` as minimum inter-arrival)
/// sequential real-time task.
struct RtTask {
  TaskId id{};
  std::string name;
  Cycles wcet = 0;           // worst-case execution time, in cycles
  DurationPs period = 0;     // release period / min inter-arrival
  DurationPs deadline = 0;   // relative deadline; 0 means deadline==period
  int fixed_priority = 0;    // smaller value = higher priority
  Criticality criticality = Criticality::kHard;

  [[nodiscard]] DurationPs effective_deadline() const {
    return deadline == 0 ? period : deadline;
  }
  /// Utilization at frequency `f`.
  [[nodiscard]] double utilization(HertzT f) const {
    if (period == 0 || f == 0) return 0.0;
    return static_cast<double>(cycles_to_ps(wcet, f)) /
           static_cast<double>(period);
  }
};

/// One released instance of a task.
struct Job {
  TaskId task{};
  std::uint64_t index = 0;   // 0-based release count
  TimePs release = 0;
  TimePs abs_deadline = 0;
  Cycles remaining = 0;
  TimePs completion = 0;     // filled in when done
};

/// Malleable parallel application for the space-shared pool: it can run on
/// anything from `min_cores` to `max_cores`, with an Amdahl-style serial
/// fraction limiting its scaling (Sec. II-A).
struct ParallelApp {
  TaskId id{};
  std::string name;
  Cycles total_work = 0;      // cycles of the fully-parallel region + serial
  double serial_fraction = 0; // fraction of total_work that is sequential
  std::size_t min_cores = 1;
  std::size_t max_cores = SIZE_MAX;

  /// Execution time in cycles on `n` cores with per-core boost factor
  /// `boost` applied to the serial phase only (the Sec. II proposal:
  /// "boost the performance of individual cores ... for sequential code").
  [[nodiscard]] double span_cycles(std::size_t n, double serial_boost = 1.0) const {
    const double serial = static_cast<double>(total_work) * serial_fraction;
    const double parallel = static_cast<double>(total_work) - serial;
    const double nn = static_cast<double>(n == 0 ? 1 : n);
    return serial / serial_boost + parallel / nn;
  }

  /// Classic Amdahl speedup on `n` cores relative to 1 core, with optional
  /// serial-phase frequency boost.
  [[nodiscard]] double speedup(std::size_t n, double serial_boost = 1.0) const {
    return span_cycles(1, 1.0) / span_cycles(n, serial_boost);
  }
};

/// A task set plus the core frequency it is analysed against.
struct TaskSet {
  std::vector<RtTask> tasks;
  HertzT frequency = mhz(400);

  RtTask& add(std::string name, Cycles wcet, DurationPs period,
              DurationPs deadline = 0,
              Criticality crit = Criticality::kHard) {
    RtTask t;
    t.id = TaskId{static_cast<std::uint32_t>(tasks.size())};
    t.name = std::move(name);
    t.wcet = wcet;
    t.period = period;
    t.deadline = deadline;
    t.criticality = crit;
    tasks.push_back(t);
    return tasks.back();
  }

  [[nodiscard]] double total_utilization() const {
    double u = 0;
    for (const auto& t : tasks) u += t.utilization(frequency);
    return u;
  }
};

}  // namespace rw::sched
