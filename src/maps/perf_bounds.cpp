#include "maps/perf_bounds.hpp"

#include <algorithm>

namespace rw::maps {
namespace {

std::size_t pe_of(const std::vector<std::size_t>& task_to_pe, std::size_t t,
                  std::size_t pe_count) {
  const std::size_t raw = t < task_to_pe.size() ? task_to_pe[t] : t;
  return pe_count == 0 ? 0 : raw % pe_count;
}

/// Shared accumulation: per-task execution times and per-edge charged
/// occupancies in, bound/work/comm/critical-path out. The critical
/// path uses the same costs with zero contention — the floor any
/// schedule could reach, reported for tightness only.
MakespanBound accumulate(const TaskGraph& g,
                         const std::vector<DurationPs>& exec,
                         const std::vector<DurationPs>& edge_cost,
                         const std::vector<bool>& edge_charged) {
  MakespanBound b;
  for (const auto e : exec) b.work += e;
  for (std::size_t i = 0; i < edge_cost.size(); ++i) {
    b.comm += edge_cost[i];
    if (edge_charged[i]) ++b.cross_edges;
  }
  b.bound = b.work + b.comm;

  const auto order = g.topological_order();
  if (order.size() == g.tasks().size()) {
    std::vector<std::vector<std::size_t>> in_edges(g.tasks().size());
    for (std::size_t i = 0; i < g.edges().size(); ++i)
      in_edges[g.edges()[i].dst.index()].push_back(i);
    std::vector<DurationPs> dist(g.tasks().size(), 0);
    for (const auto t : order) {
      DurationPs start = 0;
      for (const auto ei : in_edges[t.index()])
        start = std::max(start, dist[g.edges()[ei].src.index()] +
                                    edge_cost[ei]);
      dist[t.index()] = start + exec[t.index()];
      b.critical_path = std::max(b.critical_path, dist[t.index()]);
    }
  }
  return b;
}

}  // namespace

MakespanBound static_makespan_bound(
    const TaskGraph& g, const std::vector<PeDesc>& pes, const CommCost& comm,
    const std::vector<std::size_t>& task_to_pe) {
  std::vector<DurationPs> exec(g.tasks().size(), 0);
  for (std::size_t t = 0; t < g.tasks().size(); ++t) {
    const auto& pe = pes.at(pe_of(task_to_pe, t, pes.size()));
    exec[t] = cycles_to_ps(g.tasks()[t].cycles_on(pe.cls), pe.frequency);
  }
  std::vector<DurationPs> edge_cost(g.edges().size(), 0);
  std::vector<bool> edge_charged(g.edges().size(), false);
  for (std::size_t i = 0; i < g.edges().size(); ++i) {
    const auto& e = g.edges()[i];
    const std::size_t sp = pe_of(task_to_pe, e.src.index(), pes.size());
    const std::size_t dp = pe_of(task_to_pe, e.dst.index(), pes.size());
    if (sp == dp) continue;
    edge_cost[i] = comm(sp, dp, e.bytes);
    edge_charged[i] = true;
  }
  return accumulate(g, exec, edge_cost, edge_charged);
}

MakespanBound static_makespan_bound_any_gang(const TaskGraph& g,
                                             const PeDesc& pe,
                                             const CommCost& comm) {
  std::vector<DurationPs> exec(g.tasks().size(), 0);
  for (std::size_t t = 0; t < g.tasks().size(); ++t)
    exec[t] = cycles_to_ps(g.tasks()[t].cycles_on(pe.cls), pe.frequency);
  std::vector<DurationPs> edge_cost(g.edges().size(), 0);
  std::vector<bool> edge_charged(g.edges().size(), true);
  for (std::size_t i = 0; i < g.edges().size(); ++i)
    edge_cost[i] = comm(0, 1, g.edges()[i].bytes);
  return accumulate(g, exec, edge_cost, edge_charged);
}

std::vector<PeDesc> pes_from_platform(const sim::PlatformConfig& cfg) {
  std::vector<PeDesc> pes;
  pes.reserve(cfg.cores.size());
  for (const auto& c : cfg.cores) pes.push_back({c.cls, c.frequency});
  return pes;
}

CommCost comm_cost_from_platform(const sim::PlatformConfig& cfg) {
  return [fabric = sim::FabricConfig(cfg)](
             std::size_t src, std::size_t dst,
             std::uint64_t bytes) -> DurationPs {
    if (src == dst) return 0;
    return sim::nominal_latency(fabric,
                                sim::CoreId{static_cast<std::uint32_t>(src)},
                                sim::CoreId{static_cast<std::uint32_t>(dst)},
                                bytes);
  };
}

MappingVerdict verify_mapping(const TaskGraph& g,
                              const sim::PlatformConfig& cfg,
                              const std::vector<std::size_t>& task_to_pe) {
  MappingVerdict v;
  v.bound = static_makespan_bound(g, pes_from_platform(cfg),
                                  comm_cost_from_platform(cfg), task_to_pe);
  v.deadline = g.annotation.deadline;
  v.has_deadline = v.deadline > 0;
  v.provable = v.has_deadline && v.bound.bound <= v.deadline;
  return v;
}

}  // namespace rw::maps
