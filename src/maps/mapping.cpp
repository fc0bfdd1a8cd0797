#include "maps/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>

namespace rw::maps {

CommCost simple_comm_cost(DurationPs latency, double bytes_per_ps) {
  return [latency, bytes_per_ps](std::size_t src, std::size_t dst,
                                 std::uint64_t bytes) -> DurationPs {
    if (src == dst) return 0;
    if (bytes_per_ps <= 0) return latency;
    return latency +
           static_cast<DurationPs>(static_cast<double>(bytes) /
                                   bytes_per_ps);
  };
}

namespace {

DurationPs exec_time(const TaskNode& t, const PeDesc& pe) {
  return cycles_to_ps(t.cycles_on(pe.cls), pe.frequency);
}

/// Mean execution time across PEs honouring preferences (used for ranks).
double mean_exec(const TaskNode& t, const std::vector<PeDesc>& pes) {
  double sum = 0;
  int n = 0;
  for (const auto& pe : pes) {
    if (t.preferred_pe && pe.cls != *t.preferred_pe) continue;
    sum += static_cast<double>(exec_time(t, pe));
    ++n;
  }
  if (n == 0) {  // preference unsatisfiable: fall back to all PEs
    for (const auto& pe : pes) sum += static_cast<double>(exec_time(t, pe));
    n = static_cast<int>(pes.size());
  }
  return sum / std::max(1, n);
}

/// Upward ranks: rank(t) = mean_exec(t) + max over succ (mean_comm + rank).
std::vector<double> upward_ranks(const TaskGraph& g,
                                 const std::vector<PeDesc>& pes,
                                 const CommCost& comm) {
  const auto order = g.topological_order();
  if (order.empty())
    throw std::invalid_argument("task graph has a cycle; cannot schedule");
  std::vector<double> rank(g.tasks().size(), 0.0);
  // Mean communication cost approximated with PE pair (0, 1) when
  // available (uniform fabrics make this exact).
  auto mean_comm = [&](std::uint64_t bytes) {
    if (pes.size() < 2) return 0.0;
    return static_cast<double>(comm(0, 1, bytes));
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskNodeId t = *it;
    double best = 0;
    for (const auto& e : g.edges()) {
      if (e.src != t) continue;
      best = std::max(best, mean_comm(e.bytes) + rank[e.dst.index()]);
    }
    rank[t.index()] = mean_exec(g.task(t), pes) + best;
  }
  return rank;
}

struct ScheduleState {
  std::vector<TimePs> pe_free;
  std::vector<TimePs> task_finish;
  std::vector<std::size_t> task_pe;
  std::vector<ScheduleSlot> slots;
  TimePs makespan = 0;
};

/// Place `t` on `pe` as early as dependences and the PE allow.
void place(const TaskGraph& g, const std::vector<PeDesc>& pes,
           const CommCost& comm, ScheduleState& st, TaskNodeId t,
           std::size_t pe) {
  TimePs ready = 0;
  for (const auto& e : g.edges()) {
    if (e.dst != t) continue;
    const std::size_t src_pe = st.task_pe[e.src.index()];
    const TimePs avail =
        st.task_finish[e.src.index()] + comm(src_pe, pe, e.bytes);
    ready = std::max(ready, avail);
  }
  const TimePs start = std::max(ready, st.pe_free[pe]);
  const TimePs finish = start + exec_time(g.task(t), pes[pe]);
  st.pe_free[pe] = finish;
  st.task_finish[t.index()] = finish;
  st.task_pe[t.index()] = pe;
  st.slots.push_back(ScheduleSlot{t, pe, start, finish});
  st.makespan = std::max(st.makespan, finish);
}

std::vector<std::size_t> allowed_pes(const TaskNode& t,
                                     const std::vector<PeDesc>& pes) {
  std::vector<std::size_t> out;
  for (std::size_t p = 0; p < pes.size(); ++p)
    if (!t.preferred_pe || pes[p].cls == *t.preferred_pe) out.push_back(p);
  if (out.empty())  // unsatisfiable preference: any PE may run it
    for (std::size_t p = 0; p < pes.size(); ++p) out.push_back(p);
  return out;
}

MappingResult finish_result(ScheduleState st) {
  MappingResult res;
  res.task_to_pe = std::move(st.task_pe);
  res.slots = std::move(st.slots);
  std::sort(res.slots.begin(), res.slots.end(),
            [](const ScheduleSlot& a, const ScheduleSlot& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.task < b.task;
            });
  res.makespan = st.makespan;
  return res;
}

std::vector<TaskNodeId> rank_order(const TaskGraph& g,
                                   const std::vector<double>& rank) {
  // Topological order refined by descending upward rank (HEFT priority).
  auto order = g.topological_order();
  std::stable_sort(order.begin(), order.end(),
                   [&](TaskNodeId a, TaskNodeId b) {
                     return rank[a.index()] > rank[b.index()];
                   });
  // Re-establish precedence feasibility: stable sort by rank may violate
  // topological constraints only when a predecessor has lower rank, which
  // cannot happen (rank(pred) >= rank(succ) + exec > rank(succ)).
  return order;
}

}  // namespace

MappingResult heft_map(const TaskGraph& g, const std::vector<PeDesc>& pes,
                       const CommCost& comm) {
  if (pes.empty()) throw std::invalid_argument("no PEs to map onto");
  const auto rank = upward_ranks(g, pes, comm);
  ScheduleState st;
  st.pe_free.assign(pes.size(), 0);
  st.task_finish.assign(g.tasks().size(), 0);
  st.task_pe.assign(g.tasks().size(), 0);

  for (const TaskNodeId t : rank_order(g, rank)) {
    // Earliest-finish-time PE among allowed ones.
    std::size_t best_pe = 0;
    TimePs best_finish = std::numeric_limits<TimePs>::max();
    for (const std::size_t pe : allowed_pes(g.task(t), pes)) {
      // Tentative finish on this PE.
      TimePs ready = 0;
      for (const auto& e : g.edges()) {
        if (e.dst != t) continue;
        ready = std::max(ready, st.task_finish[e.src.index()] +
                                    comm(st.task_pe[e.src.index()], pe,
                                         e.bytes));
      }
      const TimePs start = std::max(ready, st.pe_free[pe]);
      const TimePs finish = start + exec_time(g.task(t), pes[pe]);
      if (finish < best_finish) {
        best_finish = finish;
        best_pe = pe;
      }
    }
    place(g, pes, comm, st, t, best_pe);
  }
  return finish_result(std::move(st));
}

TimePs evaluate_mapping(const TaskGraph& g, const std::vector<PeDesc>& pes,
                        const CommCost& comm,
                        const std::vector<std::size_t>& task_to_pe) {
  const auto rank = upward_ranks(g, pes, comm);
  ScheduleState st;
  st.pe_free.assign(pes.size(), 0);
  st.task_finish.assign(g.tasks().size(), 0);
  st.task_pe.assign(g.tasks().size(), 0);
  for (const TaskNodeId t : rank_order(g, rank))
    place(g, pes, comm, st, t, task_to_pe[t.index()]);
  return st.makespan;
}

MappingResult anneal_map(const TaskGraph& g, const std::vector<PeDesc>& pes,
                         const CommCost& comm, std::uint64_t seed,
                         int iterations) {
  MappingResult cur = heft_map(g, pes, comm);
  std::vector<std::size_t> best_assign = cur.task_to_pe;
  TimePs best_cost = cur.makespan;
  std::vector<std::size_t> assign = best_assign;
  TimePs cost = best_cost;

  Rng rng(seed);
  double temp = static_cast<double>(best_cost) * 0.1 + 1.0;
  const double cooling = 0.995;

  for (int i = 0; i < iterations; ++i) {
    // Move: reassign one random task to a random allowed PE.
    const std::size_t t = rng.next_below(g.tasks().size());
    const auto allowed =
        allowed_pes(g.tasks()[t], pes);
    const std::size_t pe = allowed[rng.next_below(allowed.size())];
    if (assign[t] == pe) continue;
    const std::size_t old = assign[t];
    assign[t] = pe;
    const TimePs next_cost = evaluate_mapping(g, pes, comm, assign);
    const double delta =
        static_cast<double>(next_cost) - static_cast<double>(cost);
    if (delta <= 0 || rng.next_double() < std::exp(-delta / temp)) {
      cost = next_cost;
      if (cost < best_cost) {
        best_cost = cost;
        best_assign = assign;
      }
    } else {
      assign[t] = old;
    }
    temp *= cooling;
  }

  // Rebuild the full schedule for the best assignment found.
  const auto rank = upward_ranks(g, pes, comm);
  ScheduleState st;
  st.pe_free.assign(pes.size(), 0);
  st.task_finish.assign(g.tasks().size(), 0);
  st.task_pe.assign(g.tasks().size(), 0);
  for (const TaskNodeId t : rank_order(g, rank))
    place(g, pes, comm, st, t, best_assign[t.index()]);
  return finish_result(std::move(st));
}

MappingResult dynamic_schedule(const TaskGraph& g,
                               const std::vector<PeDesc>& pes,
                               const CommCost& comm) {
  // Run-time dispatcher: at each step pick the highest-priority READY task
  // (all preds finished) and the PE where it can start earliest.
  if (pes.empty()) throw std::invalid_argument("no PEs");
  const auto rank = upward_ranks(g, pes, comm);
  ScheduleState st;
  st.pe_free.assign(pes.size(), 0);
  st.task_finish.assign(g.tasks().size(), 0);
  st.task_pe.assign(g.tasks().size(), 0);

  const std::size_t n = g.tasks().size();
  std::vector<bool> done(n, false), scheduled(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    // Ready set under current completion state.
    TaskNodeId pick{};
    double pick_rank = -1;
    for (std::size_t t = 0; t < n; ++t) {
      if (scheduled[t]) continue;
      bool ready = true;
      for (const auto& e : g.edges())
        if (e.dst.index() == t && !scheduled[e.src.index()]) ready = false;
      if (!ready) continue;
      if (rank[t] > pick_rank) {
        pick_rank = rank[t];
        pick = TaskNodeId{static_cast<std::uint32_t>(t)};
      }
    }
    // Earliest-start PE (greedy run-time decision, no lookahead).
    std::size_t best_pe = 0;
    TimePs best_start = std::numeric_limits<TimePs>::max();
    for (const std::size_t pe : allowed_pes(g.task(pick), pes)) {
      TimePs ready = 0;
      for (const auto& e : g.edges()) {
        if (e.dst != pick) continue;
        ready = std::max(ready, st.task_finish[e.src.index()] +
                                    comm(st.task_pe[e.src.index()], pe,
                                         e.bytes));
      }
      const TimePs start = std::max(ready, st.pe_free[pe]);
      if (start < best_start) {
        best_start = start;
        best_pe = pe;
      }
    }
    place(g, pes, comm, st, pick, best_pe);
    scheduled[pick.index()] = true;
  }
  return finish_result(std::move(st));
}

TimePs best_sequential_time(const TaskGraph& g,
                            const std::vector<PeDesc>& pes) {
  TimePs best = std::numeric_limits<TimePs>::max();
  for (const auto& pe : pes) {
    TimePs total = 0;
    for (const auto& t : g.tasks()) total += exec_time(t, pe);
    best = std::min(best, total);
  }
  return best;
}

namespace {

/// The one replay loop behind execute_on_platform and its traced twin:
/// timing never depends on `traced`, which only adds the trace records.
TimePs replay_on_platform(const TaskGraph& g,
                          const std::vector<std::size_t>& task_to_pe,
                          sim::Platform& platform, bool traced) {
  const auto order = g.topological_order();
  if (order.empty()) throw std::invalid_argument("cyclic task graph");
  std::vector<TimePs> finish(g.tasks().size(), 0);
  TimePs makespan = 0;
  auto& tracer = platform.tracer();

  for (const TaskNodeId t : order) {
    const std::size_t pe = task_to_pe.at(t.index()) % platform.core_count();
    auto& core = platform.core(pe);
    TimePs ready = 0;
    for (const auto& e : g.edges()) {
      if (e.dst != t) continue;
      const std::size_t src_pe =
          task_to_pe.at(e.src.index()) % platform.core_count();
      const TimePs avail = finish[e.src.index()];
      TimePs xstart = avail;
      TimePs xfinish = avail;
      if (src_pe != pe) {
        // Real transfer through the platform interconnect (contended).
        std::tie(xstart, xfinish) =
            platform.interconnect().reserve_transfer(
                sim::CoreId{static_cast<std::uint32_t>(src_pe)},
                sim::CoreId{static_cast<std::uint32_t>(pe)}, e.bytes, avail);
      }
      if (traced) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(e.src.value()) << 32) | e.dst.value();
        const std::string label =
            g.task(e.src).name + ">" + g.task(e.dst).name;
        tracer.record(xstart, sim::TraceKind::kMsgSend,
                      sim::CoreId{static_cast<std::uint32_t>(src_pe)}, label,
                      key, e.bytes);
        tracer.record(xfinish, sim::TraceKind::kMsgRecv,
                      sim::CoreId{static_cast<std::uint32_t>(pe)}, label, key,
                      e.bytes);
      }
      ready = std::max(ready, xfinish);
    }
    const Cycles cyc = g.task(t).cycles_on(core.pe_class());
    const auto [start, end] = core.reserve_from(ready, cyc);
    if (traced) {
      tracer.record(start, sim::TraceKind::kTaskStart, core.id(),
                    g.task(t).name, t.value(), cyc);
      tracer.record(end, sim::TraceKind::kTaskEnd, core.id(), g.task(t).name,
                    t.value(), g.task(t).ref_cycles);
    }
    finish[t.index()] = end;
    makespan = std::max(makespan, end);
  }
  return makespan;
}

}  // namespace

TimePs execute_on_platform(const TaskGraph& g,
                           const std::vector<std::size_t>& task_to_pe,
                           sim::Platform& platform) {
  return replay_on_platform(g, task_to_pe, platform, /*traced=*/false);
}

TimePs execute_on_platform_traced(const TaskGraph& g,
                                  const std::vector<std::size_t>& task_to_pe,
                                  sim::Platform& platform) {
  return replay_on_platform(g, task_to_pe, platform, /*traced=*/true);
}

MappingResult replan_survivors(const TaskGraph& g,
                               const std::vector<PeDesc>& pes,
                               const CommCost& comm, std::size_t dead_pe) {
  if (dead_pe >= pes.size())
    throw std::invalid_argument("replan_survivors: no such PE");
  if (pes.size() <= 1)
    throw std::invalid_argument("replan_survivors: no survivors");
  std::vector<PeDesc> sub;
  std::vector<std::size_t> orig;  // survivor index -> original PE index
  for (std::size_t p = 0; p < pes.size(); ++p) {
    if (p == dead_pe) continue;
    sub.push_back(pes[p]);
    orig.push_back(p);
  }
  MappingResult r = heft_map(
      g, sub,
      [&](std::size_t a, std::size_t b, std::uint64_t bytes) -> DurationPs {
        return comm(orig[a], orig[b], bytes);
      });
  for (auto& pe : r.task_to_pe) pe = orig[pe];
  for (auto& s : r.slots) s.pe = orig[s.pe];
  return r;
}

DegradationReport remap_on_failure(const TaskGraph& g,
                                   const std::vector<PeDesc>& pes,
                                   const CommCost& comm,
                                   const std::vector<std::size_t>& task_to_pe,
                                   std::size_t dead_pe) {
  if (dead_pe >= pes.size())
    throw std::invalid_argument("remap_on_failure: no such PE");
  DegradationReport rep;
  rep.dead_pe = dead_pe;
  rep.healthy_makespan = evaluate_mapping(g, pes, comm, task_to_pe);

  // Greedy online remap: orphans re-homed one at a time in HEFT priority
  // order, each to the survivor that minimizes the resulting makespan
  // given everything decided so far. Surviving assignments never move.
  auto assign = task_to_pe;
  const auto rank = upward_ranks(g, pes, comm);
  for (const TaskNodeId t : rank_order(g, rank)) {
    if (assign[t.index()] != dead_pe) continue;
    ++rep.moved_tasks;
    auto allowed = allowed_pes(g.task(t), pes);
    std::erase(allowed, dead_pe);
    if (allowed.empty())  // preference only satisfiable on the dead PE
      for (std::size_t p = 0; p < pes.size(); ++p)
        if (p != dead_pe) allowed.push_back(p);
    std::size_t best_pe = allowed.front();
    TimePs best_cost = std::numeric_limits<TimePs>::max();
    for (const std::size_t pe : allowed) {
      assign[t.index()] = pe;
      const TimePs cost = evaluate_mapping(g, pes, comm, assign);
      if (cost < best_cost) {
        best_cost = cost;
        best_pe = pe;
      }
    }
    assign[t.index()] = best_pe;
  }
  rep.remap_task_to_pe = assign;
  rep.remap_makespan = evaluate_mapping(g, pes, comm, assign);

  MappingResult oracle = replan_survivors(g, pes, comm, dead_pe);
  rep.oracle_task_to_pe = std::move(oracle.task_to_pe);
  rep.oracle_makespan = oracle.makespan;
  return rep;
}

}  // namespace rw::maps
