// Dependence graph over an execution trace.
//
// The paper's Sec. VII complaint, sharpened: a virtual platform tells you
// *that* a mapping is slow, not *why*. The missing artifact is the
// dependence DAG of what actually happened — task-compute, channel-transfer
// and DMA segments connected by happens-before edges (data dependences) and
// serialization edges (core and fabric occupancy). Given that DAG, "why is
// the makespan M?" becomes a longest-path walk and "what if the link were
// twice as wide?" becomes a re-timing pass — both O(trace events), neither
// a re-simulation.
//
// DepGraph is built from a perf::TraceView (the typed decoding of the raw
// trace) plus the sim::PlatformConfig the trace was produced on: the config
// supplies the *static* timing model (PE class/frequency per core, bus and
// mesh parameters, XY routes) that the what-if re-timer replays. Nodes keep
// the encounter order of their opening trace events, which for
// reservation-order executors (maps::execute_on_platform_traced) is exactly
// the order every platform resource serialized requests in; every edge goes
// forward in that order, so the graph is acyclic by construction and the
// re-timer is a single forward sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "perf/traceview.hpp"
#include "sim/platform.hpp"

namespace rw::critpath {

inline constexpr std::size_t kNoNode = ~static_cast<std::size_t>(0);

enum class SegKind : std::uint8_t { kCompute, kTransfer, kDma };

const char* seg_kind_name(SegKind k);

/// One node: a contiguous segment of platform activity.
struct Segment {
  std::size_t id = 0;
  SegKind kind = SegKind::kCompute;
  std::string label;

  // Compute segments.
  std::size_t pe = 0;
  std::uint64_t task = perf::kNoTask;
  Cycles cycles = 0;      // executed on `pe`
  Cycles ref_cycles = 0;  // reference-RISC cycles (0 when unknown)

  // Transfer segments.
  std::size_t src_pe = 0;
  std::size_t dst_pe = 0;
  std::uint64_t src_task = perf::kNoTask;
  std::uint64_t dst_task = perf::kNoTask;
  std::uint64_t bytes = 0;
  bool local = false;  // same-PE dependence record; never touched the fabric

  // Observed timing, from the trace.
  TimePs obs_start = 0;
  TimePs obs_finish = 0;

  [[nodiscard]] DurationPs obs_duration() const {
    return obs_finish - obs_start;
  }
};

enum class EdgeKind : std::uint8_t {
  kDependence,  // happens-before through data (task -> transfer -> task)
  kResource,    // serialization on a core, fabric link, or the DMA engine
};

struct DepEdge {
  std::size_t src = 0;
  std::size_t dst = 0;
  EdgeKind kind = EdgeKind::kDependence;

  bool operator==(const DepEdge&) const = default;
};

class DepGraph {
 public:
  /// Build from a decoded trace and the platform configuration it ran on.
  /// Tolerant of partial traces (spans referencing unknown tasks simply
  /// get fewer dependence edges); an empty view yields an empty graph.
  static DepGraph build(const perf::TraceView& view,
                        const sim::PlatformConfig& cfg);

  [[nodiscard]] const std::vector<Segment>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<DepEdge>& edges() const { return edges_; }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  /// Dependence predecessors of node `n` (indices into nodes()).
  [[nodiscard]] const std::vector<std::size_t>& dep_preds(
      std::size_t n) const {
    return dep_preds_.at(n);
  }

  /// Compute node owning task `t`, or kNoNode.
  [[nodiscard]] std::size_t node_of_task(std::uint64_t t) const;

  /// The platform model the trace was recorded on (what-if baselines edit
  /// copies of this).
  [[nodiscard]] const sim::PlatformConfig& platform() const { return cfg_; }
  [[nodiscard]] std::size_t num_pes() const { return cfg_.cores.size(); }

  /// Observed makespan (max segment finish).
  [[nodiscard]] TimePs observed_makespan() const { return obs_makespan_; }


  /// Edge-count bookkeeping against the source trace: nodes consume
  /// exactly two events each, and each transfer contributes at most two
  /// dependence edges (fewer when an endpoint task never appeared).
  [[nodiscard]] std::size_t dependence_edge_count() const;
  [[nodiscard]] std::size_t resource_edge_count() const;

 private:
  std::vector<Segment> nodes_;
  std::vector<DepEdge> edges_;
  std::vector<std::vector<std::size_t>> dep_preds_;
  std::vector<std::pair<std::uint64_t, std::size_t>> task_to_node_;  // sorted
  sim::PlatformConfig cfg_;
  TimePs obs_makespan_ = 0;
};

}  // namespace rw::critpath
