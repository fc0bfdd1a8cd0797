#include "sched/analysis.hpp"

#include <algorithm>
#include <numeric>
#include <set>

namespace rw::sched {

namespace {

void assign_priorities_by(TaskSet& ts,
                          DurationPs (*key)(const RtTask&)) {
  std::vector<std::size_t> order(ts.tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return key(ts.tasks[a]) < key(ts.tasks[b]);
                   });
  for (std::size_t rank = 0; rank < order.size(); ++rank)
    ts.tasks[order[rank]].fixed_priority = static_cast<int>(rank);
}

}  // namespace

void assign_rm_priorities(TaskSet& ts) {
  assign_priorities_by(ts, [](const RtTask& t) { return t.period; });
}

void assign_dm_priorities(TaskSet& ts) {
  assign_priorities_by(
      ts, [](const RtTask& t) { return t.effective_deadline(); });
}

bool ResponseTimes::all_schedulable(const TaskSet& ts) const {
  for (std::size_t i = 0; i < per_task.size(); ++i) {
    if (!per_task[i].has_value()) return false;
    if (*per_task[i] > ts.tasks[i].effective_deadline()) return false;
  }
  return true;
}

ResponseTimes response_time_analysis(const TaskSet& ts,
                                     Cycles switch_overhead) {
  ResponseTimes out;
  out.per_task.resize(ts.tasks.size());

  const HertzT f = ts.frequency;
  for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
    const RtTask& ti = ts.tasks[i];
    // Each job of a higher-priority task costs its WCET plus two context
    // switches (preempt in, switch back).
    const DurationPs ci =
        cycles_to_ps(ti.wcet + 2 * switch_overhead, f);
    DurationPs r = ci;
    bool converged = false;
    // Iterate R = C_i + sum_hp ceil(R/T_j) * C_j to fixpoint.
    for (int iter = 0; iter < 1000; ++iter) {
      DurationPs interference = 0;
      for (std::size_t j = 0; j < ts.tasks.size(); ++j) {
        if (j == i) continue;
        const RtTask& tj = ts.tasks[j];
        if (tj.fixed_priority >= ti.fixed_priority) continue;
        if (tj.period == 0) continue;
        const DurationPs cj =
            cycles_to_ps(tj.wcet + 2 * switch_overhead, f);
        const DurationPs releases = (r + tj.period - 1) / tj.period;
        interference += releases * cj;
      }
      const DurationPs next = ci + interference;
      if (next == r) {
        converged = true;
        break;
      }
      r = next;
      if (r > ti.effective_deadline()) break;  // already missed
    }
    if (converged && r <= ti.effective_deadline()) {
      out.per_task[i] = r;
    } else {
      out.per_task[i] = std::nullopt;
    }
  }
  return out;
}

bool edf_utilization_test(const TaskSet& ts) {
  for (const auto& t : ts.tasks)
    if (t.effective_deadline() < t.period) return false;  // not implicit
  return ts.total_utilization() <= 1.0 + 1e-12;
}

DurationPs hyperperiod(const TaskSet& ts) {
  DurationPs h = 1;
  for (const auto& t : ts.tasks) {
    if (t.period == 0) continue;
    const DurationPs g = std::gcd(h, t.period);
    const DurationPs mult = t.period / g;
    if (h > 1'000'000'000'000'000'000ULL / mult)
      return 1'000'000'000'000'000'000ULL;  // saturate
    h *= mult;
  }
  return h;
}

bool edf_demand_test(const TaskSet& ts) {
  const double u = ts.total_utilization();
  if (u > 1.0 + 1e-12) return false;

  const HertzT f = ts.frequency;
  // Testing interval: min(hyperperiod, busy-period bound L_a). For u < 1,
  // demand can only exceed supply before
  //   L = max_i(T_i - D_i) * U / (1 - U).
  DurationPs limit = hyperperiod(ts);
  if (u < 1.0 - 1e-9) {
    double la = 0;
    for (const auto& t : ts.tasks) {
      const double slack = static_cast<double>(t.period) -
                           static_cast<double>(t.effective_deadline());
      la = std::max(la, slack);
    }
    la = la * u / (1.0 - u);
    limit = std::min<DurationPs>(limit,
                                 static_cast<DurationPs>(la) + 1);
  }

  // Collect absolute deadlines up to the limit.
  std::set<DurationPs> checkpoints;
  for (const auto& t : ts.tasks) {
    if (t.period == 0) continue;
    for (DurationPs d = t.effective_deadline(); d <= limit; d += t.period) {
      checkpoints.insert(d);
      if (checkpoints.size() > 100000) break;  // guard pathological sets
    }
  }

  for (const DurationPs t : checkpoints) {
    // Demand bound function h(t) = sum_i max(0, floor((t - D_i)/T_i) + 1)*C_i.
    DurationPs demand = 0;
    for (const auto& task : ts.tasks) {
      if (task.period == 0) continue;
      const DurationPs d = task.effective_deadline();
      if (t < d) continue;
      const DurationPs jobs = (t - d) / task.period + 1;
      demand += jobs * cycles_to_ps(task.wcet, f);
    }
    if (demand > t) return false;
  }
  return true;
}

}  // namespace rw::sched
