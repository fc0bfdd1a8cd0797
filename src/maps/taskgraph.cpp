#include "maps/taskgraph.hpp"

#include <algorithm>

namespace rw::maps {

TaskNodeId TaskGraph::add_task(std::string name, Cycles ref_cycles) {
  TaskNode t;
  t.id = TaskNodeId{static_cast<std::uint32_t>(tasks_.size())};
  t.name = std::move(name);
  t.ref_cycles = ref_cycles;
  tasks_.push_back(std::move(t));
  return tasks_.back().id;
}

void TaskGraph::add_edge(TaskNodeId src, TaskNodeId dst,
                         std::uint64_t bytes) {
  edges_.push_back(TaskEdge{src, dst, bytes});
}

std::vector<TaskNodeId> TaskGraph::predecessors(TaskNodeId t) const {
  std::vector<TaskNodeId> out;
  for (const auto& e : edges_)
    if (e.dst == t) out.push_back(e.src);
  return out;
}

std::vector<TaskNodeId> TaskGraph::topological_order() const {
  std::vector<std::size_t> indeg(tasks_.size(), 0);
  for (const auto& e : edges_) ++indeg[e.dst.index()];
  // Kahn's algorithm with `order` as its FIFO: tasks are appended when
  // they become ready and visited in append order from `head`.
  std::vector<TaskNodeId> order;
  order.reserve(tasks_.size());
  for (const auto& t : tasks_)
    if (indeg[t.id.index()] == 0) order.push_back(t.id);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const TaskNodeId t = order[head];
    for (const auto& e : edges_) {
      if (e.src != t) continue;
      if (--indeg[e.dst.index()] == 0) order.push_back(e.dst);
    }
  }
  if (order.size() != tasks_.size()) return {};
  return order;
}

Cycles TaskGraph::total_ref_cycles() const {
  Cycles t = 0;
  for (const auto& n : tasks_) t += n.ref_cycles;
  return t;
}

Cycles TaskGraph::critical_path_cycles() const {
  const auto order = topological_order();
  if (order.empty()) return total_ref_cycles();  // cyclic: no better bound
  std::vector<Cycles> finish(tasks_.size(), 0);
  Cycles best = 0;
  for (const TaskNodeId t : order) {
    Cycles start = 0;
    for (const TaskNodeId p : predecessors(t))
      start = std::max(start, finish[p.index()]);
    finish[t.index()] = start + tasks_[t.index()].ref_cycles;
    best = std::max(best, finish[t.index()]);
  }
  return best;
}

}  // namespace rw::maps
