#include "sched/partitioned.hpp"

#include <algorithm>
#include <numeric>

namespace rw::sched {

namespace {

bool core_feasible(TaskSet& ts, PerCoreTest test, Cycles overhead) {
  switch (test) {
    case PerCoreTest::kResponseTime: {
      assign_dm_priorities(ts);
      return response_time_analysis(ts, overhead).all_schedulable(ts);
    }
    case PerCoreTest::kEdfDensity: {
      // Constrained deadlines use the demand test, implicit the bound.
      bool implicit = true;
      for (const auto& t : ts.tasks)
        if (t.effective_deadline() < t.period) implicit = false;
      return implicit ? edf_utilization_test(ts) : edf_demand_test(ts);
    }
  }
  return false;
}

}  // namespace

PartitionedResult partition_tasks(const std::vector<RtTask>& tasks,
                                  std::size_t cores, HertzT frequency,
                                  PackingHeuristic heuristic,
                                  PerCoreTest test,
                                  Cycles switch_overhead) {
  PartitionedResult res;
  res.task_to_core.assign(tasks.size(), -1);
  res.per_core.assign(std::max<std::size_t>(cores, 1), TaskSet{});
  for (auto& ts : res.per_core) ts.frequency = frequency;

  // Placement order.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  if (heuristic == PackingHeuristic::kFirstFitDecreasing) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tasks[a].utilization(frequency) >
                              tasks[b].utilization(frequency);
                     });
  }

  auto try_place = [&](std::size_t task_idx, std::size_t core) {
    TaskSet trial = res.per_core[core];
    const RtTask& t = tasks[task_idx];
    trial.add(t.name, t.wcet, t.period, t.deadline, t.criticality);
    if (!core_feasible(trial, test, switch_overhead)) return false;
    res.per_core[core] = std::move(trial);
    res.task_to_core[task_idx] = static_cast<int>(core);
    return true;
  };

  for (const std::size_t idx : order) {
    std::optional<std::size_t> chosen;
    switch (heuristic) {
      case PackingHeuristic::kFirstFit:
      case PackingHeuristic::kFirstFitDecreasing: {
        for (std::size_t c = 0; c < cores; ++c) {
          TaskSet trial = res.per_core[c];
          const RtTask& t = tasks[idx];
          trial.add(t.name, t.wcet, t.period, t.deadline, t.criticality);
          if (core_feasible(trial, test, switch_overhead)) {
            chosen = c;
            break;
          }
        }
        break;
      }
      case PackingHeuristic::kBestFit:
      case PackingHeuristic::kWorstFit: {
        double best_u = heuristic == PackingHeuristic::kBestFit ? -1.0 : 2.0;
        for (std::size_t c = 0; c < cores; ++c) {
          TaskSet trial = res.per_core[c];
          const RtTask& t = tasks[idx];
          trial.add(t.name, t.wcet, t.period, t.deadline, t.criticality);
          if (!core_feasible(trial, test, switch_overhead)) continue;
          const double u = res.per_core[c].total_utilization();
          const bool better = heuristic == PackingHeuristic::kBestFit
                                  ? u > best_u
                                  : u < best_u;
          if (better) {
            best_u = u;
            chosen = c;
          }
        }
        break;
      }
    }
    if (chosen.has_value()) {
      try_place(idx, *chosen);
    } else {
      res.unplaced.push_back(idx);
    }
  }

  res.feasible = res.unplaced.empty();
  for (std::size_t c = 0; c < cores; ++c) {
    if (!res.per_core[c].tasks.empty()) res.cores_used = c + 1;
    res.max_core_utilization = std::max(
        res.max_core_utilization, res.per_core[c].total_utilization());
  }
  return res;
}

std::optional<std::size_t> min_cores_needed(
    const std::vector<RtTask>& tasks, HertzT frequency,
    PackingHeuristic heuristic, std::size_t max_cores, PerCoreTest test) {
  for (std::size_t n = 1; n <= max_cores; ++n) {
    if (partition_tasks(tasks, n, frequency, heuristic, test).feasible)
      return n;
  }
  return std::nullopt;
}

}  // namespace rw::sched
