#include "ert/adapters.hpp"

#include <algorithm>
#include <utility>

namespace rw::ert {

JobSpec jobspec_from_taskgraph(const maps::TaskGraph& g) {
  JobSpec spec;
  spec.name = g.name;
  spec.graph = g;
  spec.qos = qos_from_criticality(g.annotation.criticality);
  spec.period = g.annotation.period;
  spec.deadline = g.annotation.deadline;
  if (spec.deadline == 0 && spec.qos == QosClass::kRealtime)
    spec.deadline = g.annotation.period;  // multiapp: deadline==period
  return spec;
}

maps::TaskGraph taskgraph_from_jobspec(const JobSpec& spec) {
  maps::TaskGraph g = spec.graph;
  g.name = spec.name;
  g.annotation.criticality = criticality_from_qos(spec.qos);
  g.annotation.period = spec.period;
  g.annotation.deadline = spec.deadline;
  return g;
}

JobSpec jobspec_from_cic(const cic::CicProgram& prog,
                         std::uint64_t iterations) {
  if (iterations == 0) iterations = 1;
  JobSpec spec;
  spec.name = prog.name();
  spec.graph.name = prog.name();

  std::vector<maps::TaskNodeId> nodes;
  nodes.reserve(prog.tasks().size());
  DurationPs deadline = 0;
  bool periodic_source = false;
  for (const cic::CicTask& t : prog.tasks()) {
    const maps::TaskNodeId id =
        spec.graph.add_task(t.name, t.wcet * iterations);
    if (t.preferred_pe) spec.graph.task(id).preferred_pe = t.preferred_pe;
    nodes.push_back(id);
    deadline = std::max(deadline, t.deadline);
    if (t.period > 0 && t.in_ports.empty()) periodic_source = true;
  }
  for (const cic::CicChannel& ch : prog.channels()) {
    spec.graph.add_edge(nodes.at(ch.src.index()), nodes.at(ch.dst.index()),
                        static_cast<std::uint64_t>(ch.token_bytes) *
                            iterations);
  }
  if (deadline > 0) {
    spec.deadline = deadline * iterations;
    if (periodic_source) spec.qos = QosClass::kRealtime;
  }
  return spec;
}

}  // namespace rw::ert
