// Schedulability analyses for time-shared cores.
//
// Sec. II demands a "predictable approach ... that can meet application
// dead-line requirements". Predictability means design-time tests; this
// header implements the standard ones so the hybrid scheduler can do
// admission control instead of hoping:
//   - exact response-time analysis for fixed-priority preemptive
//     scheduling (Joseph & Pandya iteration), with context-switch overhead,
//   - EDF utilization test (implicit deadlines) and the processor-demand
//     criterion for constrained deadlines.
#pragma once

#include <optional>
#include <vector>

#include "sched/task.hpp"

namespace rw::sched {

/// Assign rate-monotonic priorities in place (shorter period = higher
/// priority = smaller fixed_priority value). Ties broken by task order.
void assign_rm_priorities(TaskSet& ts);

/// Assign deadline-monotonic priorities in place.
void assign_dm_priorities(TaskSet& ts);

/// Exact worst-case response time of every task under fixed-priority
/// preemptive scheduling, including `switch_overhead` cycles charged twice
/// per preempting job (in and out). Returns nullopt for a task whose
/// iteration exceeds its deadline (unschedulable).
struct ResponseTimes {
  std::vector<std::optional<DurationPs>> per_task;  // indexed like ts.tasks
  [[nodiscard]] bool all_schedulable(const TaskSet& ts) const;
};
ResponseTimes response_time_analysis(const TaskSet& ts,
                                     Cycles switch_overhead = 0);

/// EDF schedulability for implicit deadlines: U <= 1.
bool edf_utilization_test(const TaskSet& ts);

/// Processor-demand criterion for EDF with constrained deadlines
/// (deadline <= period): checks h(t) <= t at every absolute deadline in
/// the testing interval (bounded by the hyperperiod or the busy-period
/// bound, whichever is smaller).
bool edf_demand_test(const TaskSet& ts);

/// Least common multiple of all task periods (saturates at ~1e18 ps).
DurationPs hyperperiod(const TaskSet& ts);

}  // namespace rw::sched
