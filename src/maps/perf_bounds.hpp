// Static performance bounds over mapped task graphs (ISSUE 7).
//
// The paper's complaint (Sec. I) is that programmers discover mapping
// infeasibility only after simulating it. These helpers answer the
// feasibility question *statically*: a serialized cost bound — every
// task's execution plus every cross-PE transfer's uncontended fabric
// occupancy — that provably upper-bounds both the list-scheduler
// estimates (heft_map / evaluate_mapping / dynamic_schedule) and the
// contended virtual-platform replay (execute_on_platform on an
// un-faulted fabric). The argument is an induction over scheduler /
// simulator steps: each task occupies its PE for exactly its execution
// time, each transfer occupies fabric resources for at most its
// uncontended occupancy, and every wait is a wait *for* one of those
// occupancies — so the sum of all occupancies bounds the makespan.
//
// Consumers: lint::pass_makespan (per-mapping Diagnostic evidence),
// maps::verify_mapping (deadline precheck), sched (gang admission) and
// ert (submit-time rejection of statically-infeasible realtime jobs).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "maps/mapping.hpp"
#include "maps/taskgraph.hpp"
#include "sim/platform.hpp"

namespace rw::maps {

/// A conservative static makespan bound plus the evidence needed to
/// judge its tightness. `bound = work + comm` is the guarantee;
/// `critical_path` (contention-free longest path, same cost model) is
/// the optimistic floor reported alongside for tightness ratios.
struct MakespanBound {
  DurationPs bound = 0;          // conservative upper bound (work + comm)
  DurationPs work = 0;           // sum of task execution times
  DurationPs comm = 0;           // sum of charged transfer occupancies
  DurationPs critical_path = 0;  // longest path, no contention (evidence)
  std::size_t cross_edges = 0;   // edges charged as cross-PE transfers
};

/// Serialized bound for `g` under a fixed assignment. Missing
/// `task_to_pe` entries default to the task index; PE indices wrap
/// modulo `pes.size()` (the same convention execute_on_platform uses).
/// Only cross-PE edges are charged: same-PE communication is free in
/// both the list schedulers and the platform replay.
[[nodiscard]] MakespanBound static_makespan_bound(
    const TaskGraph& g, const std::vector<PeDesc>& pes, const CommCost& comm,
    const std::vector<std::size_t>& task_to_pe);

/// Gang-size-independent bound: every task priced on `pe`, EVERY edge
/// charged at `comm(0, 1, bytes)` as if it crossed PEs. For a
/// homogeneous pool and a distance-independent CommCost this dominates
/// the fixed-assignment bound of every possible gang (same-PE edges
/// cost 0 there), so an admission controller can reject before the
/// gang size is even chosen.
[[nodiscard]] MakespanBound static_makespan_bound_any_gang(
    const TaskGraph& g, const PeDesc& pe, const CommCost& comm);

/// The planner's view of a sim::PlatformConfig: one PeDesc per core.
[[nodiscard]] std::vector<PeDesc> pes_from_platform(
    const sim::PlatformConfig& cfg);

/// Uncontended per-transfer fabric occupancy of `cfg`'s interconnect,
/// as a CommCost: the simulator's own sim::nominal_latency, i.e. the
/// route's link count x sim::link_occupancy. Shared bus = arbitration +
/// ceil(bytes/width) bus cycles on its one link; mesh NoC = XY hops x
/// (per-link serialization + hop latency), store-and-forward. Same-PE
/// transfers are free (the replay never issues them). This is the
/// un-faulted fabric: set_degrade / packet drops are run-time faults,
/// outside the static contract.
[[nodiscard]] CommCost comm_cost_from_platform(const sim::PlatformConfig& cfg);

/// Outcome of the static deadline precheck for one mapped graph.
struct MappingVerdict {
  bool has_deadline = false;  // annotation carries a deadline
  bool provable = false;      // has_deadline && bound.bound <= deadline
  DurationPs deadline = 0;
  MakespanBound bound;
};

/// Deadline precheck: static bound of `g` mapped by `task_to_pe` onto
/// `cfg`, judged against g.annotation.deadline. `provable` means the
/// deadline is met on EVERY schedule the platform can produce — the
/// static half of the paper's static/dynamic split. Not provable does
/// not mean infeasible; it means simulation is still required.
[[nodiscard]] MappingVerdict verify_mapping(
    const TaskGraph& g, const sim::PlatformConfig& cfg,
    const std::vector<std::size_t>& task_to_pe);

}  // namespace rw::maps
