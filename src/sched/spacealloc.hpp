// Space-shared core allocation (gang scheduling).
//
// Sec. II-B: parallel software "shall be met with the allocation of
// multiple space-shared cores completely dedicated to executing a single
// application". The allocator here grants gangs from a core pool; its
// arbitration can be *centralized* (one arbiter — the construct Sec. II-A
// warns "inhibits scalability") or *distributed* (k independent arbiters).
// Experiment E1 sweeps core count under both and shows where the
// centralized curve flattens.
#pragma once

#include <cstddef>
#include <vector>

#include "common/run_metrics.hpp"
#include "common/units.hpp"
#include "sched/task.hpp"

namespace rw::sched {

/// Stateful free-list over a contiguous range of core indices
/// [base, base+capacity). run_gang_schedule drives one internally, and
/// rw::ert's admission controller owns one per resource pool — the
/// `available()` query is the public capacity probe the controller needs
/// (instead of poking at allocator internals).
///
/// Grants are deterministic: the lowest free indices first, so identical
/// request sequences reproduce identical core sets.
class SpaceAllocator {
 public:
  explicit SpaceAllocator(std::size_t capacity, std::size_t base = 0);

  [[nodiscard]] std::size_t capacity() const { return free_.size(); }
  /// Cores currently free (the admission-controller query).
  [[nodiscard]] std::size_t available() const { return free_count_; }
  [[nodiscard]] std::size_t in_use() const {
    return free_.size() - free_count_;
  }
  /// First index of the managed range (pools can be carved out of one
  /// global index space without colliding).
  [[nodiscard]] std::size_t base() const { return base_; }

  /// Grant between `min_cores` and `max_cores` cores (as many as are
  /// free, capped at max). Returns the granted indices in ascending
  /// order, or an empty vector when fewer than `min_cores` are free
  /// (or min_cores is 0 or exceeds max_cores).
  [[nodiscard]] std::vector<std::size_t> allocate(std::size_t min_cores,
                                                  std::size_t max_cores);

  /// Return previously granted cores to the pool. Double-release or a
  /// foreign index is a programming error (asserted).
  void release(const std::vector<std::size_t>& cores);

 private:
  std::size_t base_ = 0;
  std::size_t free_count_ = 0;
  std::vector<bool> free_;  // free_[i] => core base_+i is free
};

enum class ArbitrationStrategy : std::uint8_t {
  kCentralized,  // one arbiter serializes every allocate/release
  kDistributed,  // one arbiter per cluster of cores
};

const char* arbitration_name(ArbitrationStrategy s);

struct GangRequest {
  ParallelApp app;
  TimePs arrival = 0;
  /// Static performance contract (ISSUE 7, optional): a deadline and a
  /// conservative makespan bound (e.g. maps::static_makespan_bound).
  /// When both are nonzero and the bound plus one arbitration pass
  /// exceeds the deadline, the request is rejected at admission — the
  /// app provably cannot meet its deadline even granted instantly, so
  /// it never occupies the FIFO. Zero means no contract (admit always).
  DurationPs deadline = 0;
  DurationPs makespan_bound = 0;
};

struct GangResult {
  struct PerApp {
    TimePs arrival = 0;
    TimePs start = 0;       // allocation granted (after arbitration)
    TimePs finish = 0;
    std::size_t cores = 0;  // gang size granted
    bool admitted = true;   // false = statically-infeasible, never ran
  };
  std::vector<PerApp> apps;
  std::uint64_t rejected_infeasible = 0;  // static-contract rejections
  /// Shared run-metrics shape (makespan, pool utilization); the gang
  /// counters below ride along as named extras when exported.
  RunMetrics metrics;
  DurationPs arbitration_wait = 0;  // total time requests waited on arbiters
  std::uint64_t operations = 0;     // allocate + release operations

  [[nodiscard]] TimePs makespan() const { return metrics.makespan; }

  /// The metrics plus gang extras, ready for harness export.
  [[nodiscard]] RunMetrics to_metrics() const;
};

struct GangConfig {
  std::size_t total_cores = 16;
  HertzT core_frequency = mhz(400);
  ArbitrationStrategy strategy = ArbitrationStrategy::kDistributed;
  std::size_t arbiters = 4;             // used when distributed
  DurationPs arbitration_latency = microseconds(5);
  double serial_boost = 1.0;            // DVFS boost for serial phases
};

/// Run all requests to completion (FIFO admission, no backfill — both
/// strategies are handicapped identically, isolating arbitration cost).
/// Gangs are moldable: an app receives min(max_cores, free) cores at grant
/// time, but never fewer than min_cores.
GangResult run_gang_schedule(const GangConfig& cfg,
                             std::vector<GangRequest> requests);

}  // namespace rw::sched
