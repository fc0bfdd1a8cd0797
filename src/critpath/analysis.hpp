// Critical-path extraction and what-if re-timing over a DepGraph.
//
// The replay machine walks the dependence graph once, in trace encounter
// order, carrying per-core, per-fabric-resource availability — exactly the
// state the transactional executor carried when it produced the trace. For
// an unedited graph the sweep reproduces every observed start/finish
// bit-for-bit (the tests hold it to that), because node order IS the order
// resources serialized requests in and the fabric is replayed with the
// live fabric's own config-pure rule (route, per-link occupancy and
// sim::LinkCalendar, sim/interconnect.hpp). An *edited* sweep — faster core,
// wider link, removed dependence, moved task — is therefore a prediction
// of what the simulator would measure, at O(nodes + edges + hops) cost
// instead of a re-simulation.
//
// Each node remembers which single constraint set its start time (its data
// predecessor or the previous occupant of its resource). Walking that
// binding chain back from the last-finishing node yields a contiguous
// critical path whose segment durations sum exactly to the makespan;
// attribute() aggregates it into per-task / per-channel / per-core /
// per-link ownership — the "why is the makespan M" answer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "critpath/depgraph.hpp"
#include "maps/taskgraph.hpp"

namespace rw::critpath {

/// One hypothetical platform or application edit.
struct Edit {
  enum class Kind : std::uint8_t {
    kFasterCore,        // scale one core's clock by `factor`
    kFasterLink,        // scale the fabric clock (bus or mesh links)
    kWiderLink,         // scale the fabric width (bytes per beat/flit)
    kRemoveDependence,  // delete the (src_task, dst_task) data edge
    kMoveTask,          // re-home `task` onto PE `pe`
  };

  Kind kind = Kind::kFasterCore;
  std::size_t pe = 0;          // kFasterCore target / kMoveTask destination
  double factor = 2.0;         // kFasterCore / kFasterLink / kWiderLink
  std::uint64_t task = perf::kNoTask;      // kMoveTask subject
  std::uint64_t src_task = perf::kNoTask;  // kRemoveDependence endpoints
  std::uint64_t dst_task = perf::kNoTask;

  static Edit faster_core(std::size_t pe, double factor = 2.0);
  static Edit faster_link(double factor = 2.0);
  static Edit wider_link(double factor = 2.0);
  static Edit remove_dependence(std::uint64_t src, std::uint64_t dst);
  static Edit move_task(std::uint64_t task, std::size_t to_pe);

  [[nodiscard]] std::string describe() const;
};

/// Edits folded into a concrete model: the platform config after speed and
/// width changes, plus the application-level moves and removed edges. Both
/// the re-timer and the ground-truth re-simulation consume this one struct,
/// so the two can never disagree about what an edit *means*.
struct EditedModel {
  sim::PlatformConfig cfg;
  std::vector<std::pair<std::uint64_t, std::size_t>> moves;  // task -> PE
  std::vector<std::pair<std::uint64_t, std::uint64_t>> removed;  // (src,dst)
};

[[nodiscard]] EditedModel apply_edits(const sim::PlatformConfig& base,
                                      std::span<const Edit> edits);

/// Result of one replay sweep. Vectors are indexed by DepGraph node id.
struct Retimed {
  TimePs makespan = 0;
  std::vector<TimePs> start;
  std::vector<TimePs> finish;
  /// Node whose finish set this node's start (kNoNode: started at its
  /// ready time with nothing binding — a path source).
  std::vector<std::size_t> binding;
  /// 1 = transfer deleted by a remove-dependence edit.
  std::vector<char> dropped;
  /// Effective endpoints after moves: for computes home == seg_src ==
  /// seg_dst; for transfers the producer/consumer PEs.
  std::vector<std::size_t> seg_src;
  std::vector<std::size_t> seg_dst;
  /// The post-edit platform model the sweep used (attribution re-derives
  /// fabric routes from it).
  sim::PlatformConfig cfg;
  /// Deterministic work counter: one tick per node, dependence edge and
  /// mesh hop processed. The O(trace events) contract is stated — and
  /// CI-gated — in these ops, not in wall time.
  std::uint64_t ops = 0;
};

/// Replay the graph under `edits` (empty = reproduce the observed run).
/// `oracle` supplies per-class task costs for cross-class moves; without
/// it a moved task keeps its recorded cycle count (exact only between
/// same-class PEs).
[[nodiscard]] Retimed retime(const DepGraph& g, std::span<const Edit> edits = {},
                             const maps::TaskGraph* oracle = nullptr);

/// One critical-path segment, source -> sink order.
struct PathStep {
  std::size_t node = 0;
  DurationPs contribution = 0;  // finish - start of this segment
};

/// Aggregated ownership of the makespan by one entity.
struct Owner {
  std::string name;
  SegKind kind = SegKind::kCompute;
  DurationPs ps = 0;
  double share = 0.0;  // ps / makespan
};

struct Attribution {
  TimePs makespan = 0;
  std::vector<PathStep> path;  // binding chain, source -> sink
  std::vector<Owner> by_task;     // compute segments, by label
  std::vector<Owner> by_channel;  // transfer segments, by label
  std::vector<Owner> by_core;     // compute time per "core<i>"
  std::vector<Owner> by_link;     // transfer time per "bus"/"link<i>"/"dma"
  DurationPs compute_ps = 0;
  DurationPs transfer_ps = 0;
  DurationPs dma_ps = 0;
  /// makespan minus the path-segment sum. Zero by the binding-chain
  /// invariant; kept explicit so tests can assert it rather than trust it.
  DurationPs idle_ps = 0;
};

/// Walk the binding chain of `r`'s sink and aggregate ownership. Owner
/// lists are sorted hottest-first (ties by name) for stable output.
[[nodiscard]] Attribution attribute(const DepGraph& g, const Retimed& r);

}  // namespace rw::critpath
