// Task graphs — the unit MAPS maps onto the platform.
//
// Tasks carry per-PE-class costs, real-time annotations (the "lightweight
// C extensions" of Sec. IV: latency, period, preferred PE types) and data
// edges with communication volume. Task graphs come out of the partitioner
// (from sequential code) or are written directly (pre-parallelized
// processes).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "sched/task.hpp"
#include "sim/core.hpp"

namespace rw::maps {

struct TaskNodeTag {};
using TaskNodeId = Id<TaskNodeTag>;

struct TaskNode {
  TaskNodeId id{};
  std::string name;
  Cycles ref_cycles = 0;  // cost on the reference RISC
  // Per-class cost multipliers are aggregated at partition time; cost on a
  // PE class = ref_cycles * factor.
  double factor_risc = 1.0;
  double factor_dsp = 1.0;
  double factor_vliw = 1.0;
  double factor_asip = 1.0;
  double factor_accel = 1.0;
  std::optional<sim::PeClass> preferred_pe;  // annotation

  [[nodiscard]] double factor(sim::PeClass cls) const {
    switch (cls) {
      case sim::PeClass::kRisc: return factor_risc;
      case sim::PeClass::kDsp: return factor_dsp;
      case sim::PeClass::kVliw: return factor_vliw;
      case sim::PeClass::kAsip: return factor_asip;
      case sim::PeClass::kAccel: return factor_accel;
    }
    return 1.0;
  }
  [[nodiscard]] Cycles cycles_on(sim::PeClass cls) const {
    return static_cast<Cycles>(static_cast<double>(ref_cycles) *
                                   factor(cls) +
                               0.5);
  }
};

struct TaskEdge {
  TaskNodeId src{};
  TaskNodeId dst{};
  std::uint64_t bytes = 0;
};

/// Real-time annotations for the whole graph (one application).
struct RtAnnotation {
  DurationPs period = 0;    // 0 = run-to-completion job
  DurationPs deadline = 0;  // end-to-end latency budget; 0 = none
  sched::Criticality criticality = sched::Criticality::kBestEffort;
};

class TaskGraph {
 public:
  TaskNodeId add_task(std::string name, Cycles ref_cycles);
  void add_edge(TaskNodeId src, TaskNodeId dst, std::uint64_t bytes);

  [[nodiscard]] const std::vector<TaskNode>& tasks() const { return tasks_; }
  [[nodiscard]] std::vector<TaskNode>& tasks() { return tasks_; }
  [[nodiscard]] const std::vector<TaskEdge>& edges() const { return edges_; }
  [[nodiscard]] const TaskNode& task(TaskNodeId t) const {
    return tasks_.at(t.index());
  }
  [[nodiscard]] TaskNode& task(TaskNodeId t) { return tasks_.at(t.index()); }

  [[nodiscard]] std::vector<TaskNodeId> predecessors(TaskNodeId t) const;

  /// Topological order; empty when the graph has a cycle.
  [[nodiscard]] std::vector<TaskNodeId> topological_order() const;
  [[nodiscard]] bool is_acyclic() const {
    return topological_order().size() == tasks_.size();
  }

  [[nodiscard]] Cycles total_ref_cycles() const;
  /// Critical path in reference cycles (computation only).
  [[nodiscard]] Cycles critical_path_cycles() const;

  RtAnnotation annotation;
  std::string name = "app";

 private:
  std::vector<TaskNode> tasks_;
  std::vector<TaskEdge> edges_;
};

}  // namespace rw::maps
