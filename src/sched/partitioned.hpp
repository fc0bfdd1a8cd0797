// Partitioned multiprocessor real-time scheduling.
//
// The complement to hybrid.hpp's space-sharing: when the workload is many
// *sequential* RT tasks (not malleable parallel apps), the classic answer
// is to partition tasks onto cores with bin packing and analyse each core
// with the uniprocessor tests. Sec. II's "strict core and process data
// locality" is exactly the property partitioned scheduling preserves —
// no task ever migrates, so every task's state stays in its core's local
// memory.
#pragma once

#include <optional>
#include <vector>

#include "sched/analysis.hpp"
#include "sched/task.hpp"

namespace rw::sched {

enum class PackingHeuristic : std::uint8_t {
  kFirstFit,            // first core that passes the test
  kBestFit,             // feasible core with highest resulting utilization
  kWorstFit,            // feasible core with lowest utilization (balance)
  kFirstFitDecreasing,  // sort by utilization first, then first-fit
};

/// Admission test applied per core.
enum class PerCoreTest : std::uint8_t {
  kResponseTime,  // exact RTA under DM priorities
  kEdfDensity,    // EDF demand/utilization test
};

struct PartitionedResult {
  bool feasible = false;               // all tasks placed
  std::vector<int> task_to_core;       // -1 = unplaced
  std::vector<TaskSet> per_core;       // resulting task sets
  std::size_t cores_used = 0;
  double max_core_utilization = 0;
  std::vector<std::size_t> unplaced;   // indices of rejected tasks
};

/// Partition `tasks` (analysed at `frequency`) onto `cores` cores.
PartitionedResult partition_tasks(const std::vector<RtTask>& tasks,
                                  std::size_t cores, HertzT frequency,
                                  PackingHeuristic heuristic,
                                  PerCoreTest test = PerCoreTest::kEdfDensity,
                                  Cycles switch_overhead = 0);

/// Smallest core count for which partitioning succeeds (provisioning),
/// searching up to `max_cores`; nullopt when even that fails.
std::optional<std::size_t> min_cores_needed(
    const std::vector<RtTask>& tasks, HertzT frequency,
    PackingHeuristic heuristic, std::size_t max_cores = 128,
    PerCoreTest test = PerCoreTest::kEdfDensity);

}  // namespace rw::sched
