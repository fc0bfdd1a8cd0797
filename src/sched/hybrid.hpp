// Hybrid time-shared / space-shared reactive scheduler.
//
// Sec. II-B: "there is a need for scheduling algorithms that can in a
// reactive way mitigate multiple requests for parallel computing resources
// as well [as] sequential computing resources ... In addition, especially
// for the purpose of real-time systems, a predictable approach shall be
// designed, that can meet application dead-line requirements. To the best
// of our knowledge, no such algorithm has been published yet."
//
// This is our candidate for that algorithm:
//   * The core set is split into time-shared cores (few, boostable) and a
//     space-shared pool (many, simple).
//   * Sequential hard-RT task sets are admitted onto time-shared cores by
//     first-fit over exact response-time analysis, with the analysis-driven
//     DVFS governor choosing the lowest feasible frequency — admission is
//     *predictable*: an accepted set provably meets deadlines.
//   * Parallel apps space-share the pool under reactive equipartition
//     (EQUI): on every arrival and completion the pool is re-divided
//     evenly among active apps (bounded by each app's min/max), so the
//     system reacts to demand without a clairvoyant schedule.
//   * Apps run their serial phase on one (boosted) core, then the parallel
//     phase at whatever share they currently hold (malleable).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sched/analysis.hpp"
#include "sched/dvfs.hpp"
#include "sched/task.hpp"

namespace rw::sched {

struct HybridConfig {
  std::size_t time_shared_cores = 2;
  std::size_t pool_cores = 14;
  FrequencyLadder ladder = FrequencyLadder::typical();
  HertzT pool_frequency = mhz(400);
  double serial_boost = 2.0;   // boost factor for serial phases in the pool
};

/// Result of hard-RT admission: which time-shared core, at what frequency.
struct Admission {
  bool admitted = false;
  std::size_t core = 0;
  HertzT frequency = 0;
  std::string reason;  // populated when rejected
};

struct PoolAppResult {
  std::string name;
  TimePs arrival = 0;
  TimePs finish = 0;
  double mean_cores = 0;  // time-averaged allocation
  [[nodiscard]] DurationPs response() const { return finish - arrival; }
};

struct HybridResult {
  std::vector<PoolAppResult> pool_apps;
  TimePs pool_makespan = 0;
  double pool_utilization = 0;  // core-time used / core-time available
  std::uint64_t reallocations = 0;  // reactive share changes
};

class HybridScheduler {
 public:
  explicit HybridScheduler(HybridConfig cfg);

  /// Predictable admission of a sequential hard-RT task set onto a
  /// time-shared core (first fit). On success the core's task set and
  /// frequency are updated; later admissions see the load.
  Admission admit_rt(const TaskSet& ts);

  /// Task sets currently admitted per time-shared core.
  [[nodiscard]] const std::vector<TaskSet>& rt_cores() const {
    return rt_cores_;
  }
  [[nodiscard]] const std::vector<HertzT>& rt_frequencies() const {
    return rt_freqs_;
  }

  struct GangArrival {
    ParallelApp app;
    TimePs arrival = 0;
  };

  /// Run a batch of parallel apps through the reactive EQUI pool.
  HybridResult run_pool(std::vector<GangArrival> arrivals) const;

  [[nodiscard]] const HybridConfig& config() const { return cfg_; }

 private:
  HybridConfig cfg_;
  std::vector<TaskSet> rt_cores_;   // one admitted set per TS core
  std::vector<HertzT> rt_freqs_;
};

}  // namespace rw::sched
