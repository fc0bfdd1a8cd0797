#include "dataflow/deadlock.hpp"


namespace rw::dataflow {

DeadlockReport detect_deadlock(const Graph& g) {
  DeadlockReport rep;
  const auto rv = g.repetition_vector();
  if (!rv.ok()) {
    // Inconsistent graphs cannot run at all; report every actor blocked.
    rep.deadlocked = true;
    for (const auto& a : g.actors())
      rep.blocked.push_back({a.id, a.name, EdgeId{}, "inconsistent graph",
                             0, 0});
    return rep;
  }

  std::vector<std::uint64_t> tokens(g.edges().size());
  for (std::size_t e = 0; e < g.edges().size(); ++e)
    tokens[e] = g.edges()[e].initial_tokens;
  std::vector<std::uint64_t> fired(g.actors().size(), 0);

  // Greedy abstract execution: fire any actor that has inputs and quota.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t a = 0; a < g.actors().size(); ++a) {
      const auto aid = ActorId{static_cast<std::uint32_t>(a)};
      if (fired[a] >= rv.value().firings[a]) continue;
      bool ready = true;
      for (const EdgeId eid : g.in_edges(aid)) {
        const Edge& e = g.edge(eid);
        const auto need = e.cons_rates[fired[a] % e.cons_rates.size()];
        if (tokens[eid.index()] < need) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      for (const EdgeId eid : g.in_edges(aid)) {
        const Edge& e = g.edge(eid);
        tokens[eid.index()] -= e.cons_rates[fired[a] % e.cons_rates.size()];
      }
      for (const EdgeId eid : g.out_edges(aid)) {
        const Edge& e = g.edge(eid);
        tokens[eid.index()] += e.prod_rates[fired[a] % e.prod_rates.size()];
      }
      ++fired[a];
      progress = true;
    }
  }

  for (std::size_t a = 0; a < g.actors().size(); ++a) {
    if (fired[a] >= rv.value().firings[a]) continue;
    rep.deadlocked = true;
    DeadlockReport::BlockedActor b;
    b.actor = ActorId{static_cast<std::uint32_t>(a)};
    b.actor_name = g.actors()[a].name;
    for (const EdgeId eid : g.in_edges(b.actor)) {
      const Edge& e = g.edge(eid);
      const auto need = e.cons_rates[fired[a] % e.cons_rates.size()];
      if (tokens[eid.index()] < need) {
        b.starved_edge = eid;
        b.edge_name = e.name;
        b.tokens_present = tokens[eid.index()];
        b.tokens_needed = need;
        break;
      }
    }
    rep.blocked.push_back(std::move(b));
  }
  return rep;
}

}  // namespace rw::dataflow
