#include "fuzz/oracle.hpp"

#include <set>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "ert/service.hpp"
#include "ert/templates.hpp"
#include "fault/injector.hpp"
#include "fault/scenario.hpp"
#include "lint/perf_contract.hpp"
#include "maps/mapping.hpp"
#include "maps/perf_bounds.hpp"
#include "perf/workload.hpp"
#include "vpdebug/replay.hpp"

namespace rw::fuzz {
namespace {

/// Event budget for free-running families: a tiny case draining tens of
/// thousands of events sits orders of magnitude below this, so hitting
/// it means a livelock, not a big workload.
constexpr std::uint64_t kEventBudget = 20'000'000;

/// Fault kinds present in the plan, as coverage kind indices; just
/// {kFaultFree} for an empty plan.
std::vector<int> plan_kinds(const fault::FaultPlan& plan) {
  std::set<int> kinds;
  for (const fault::FaultEvent& e : plan.events())
    kinds.insert(static_cast<int>(e.kind));
  if (kinds.empty()) return {CoverageCell::kFaultFree};
  return {kinds.begin(), kinds.end()};
}

void mark_cells(CaseOutcome& out, const CampaignCase& c,
                sim::QueuePolicy policy, bool parallel) {
  for (const int kind : plan_kinds(c.plan))
    out.cells.push_back({c.family, kind, policy, parallel});
}

void violate(CaseOutcome& out, std::string invariant, std::string detail) {
  out.violations.push_back({std::move(invariant), std::move(detail)});
}

/// The determinism twins of one case, checked against its base run `base`:
/// a rerun, the other queue policy, and (tiled cases only) the sequential
/// executor, each as enabled by `opts`. `run(policy, parallel)` runs the
/// family once; `seq_name` names the sequential twin in violation texts.
template <typename Probe, typename RunOnce>
void check_twins(const CampaignCase& c, const OracleOptions& opts,
                 CaseOutcome& out, const Probe& base, bool par,
                 const RunOnce& run, const char* seq_name) {
  if (opts.rerun_twin) {
    const Probe again = run(c.queue, par);
    ++out.sub_runs;
    if (!(again == base))
      violate(out, "determinism.rerun",
              base.describe() + " vs rerun " + again.describe());
  }
  if (opts.policy_twin) {
    const sim::QueuePolicy other = c.queue == sim::QueuePolicy::kCalendar
                                       ? sim::QueuePolicy::kBinaryHeap
                                       : sim::QueuePolicy::kCalendar;
    const Probe twin = run(other, par);
    ++out.sub_runs;
    mark_cells(out, c, other, par);
    if (!(twin == base))
      violate(out, "determinism.policy",
              base.describe() + " vs " + sim::queue_policy_name(other) +
                  " " + twin.describe());
  }
  if (opts.exec_twin && par) {
    const Probe twin = run(c.queue, false);
    ++out.sub_runs;
    mark_cells(out, c, c.queue, false);
    if (!(twin == base))
      violate(out, "determinism.exec",
              base.describe() + " vs " + seq_name + " " + twin.describe());
  }
}

// ---------------------------------------------------------------- workloads

struct SimProbe {
  std::uint64_t fingerprint = 0;
  TimePs makespan = 0;
  std::uint64_t events = 0;
  bool budget_hit = false;

  [[nodiscard]] bool operator==(const SimProbe&) const = default;
  [[nodiscard]] std::string describe() const {
    return strformat("fp=%016llx makespan=%llu events=%llu%s",
                     static_cast<unsigned long long>(fingerprint),
                     static_cast<unsigned long long>(makespan),
                     static_cast<unsigned long long>(events),
                     budget_hit ? " BUDGET" : "");
  }
};

SimProbe run_workload_once(const CampaignCase& c, sim::QueuePolicy policy,
                           bool parallel) {
  sim::Platform plat(c.platform_config(policy, parallel));
  vpdebug::ExecutionRecorder rec(plat);
  fault::FaultInjector injector(plat, c.plan);
  injector.arm();
  perf::spawn_workload(family_name(c.family), plat, c.seed, c.scale);
  plat.run(kEventBudget);
  SimProbe p;
  p.fingerprint = rec.fingerprint();
  p.makespan = plat.now();
  for (std::size_t t = 0; t < plat.tile_count(); ++t)
    p.events += plat.tile_kernel(static_cast<std::uint32_t>(t))
                    .events_executed();
  p.budget_hit = p.events >= kEventBudget;
  return p;
}

void run_workload_family(const CampaignCase& c, const OracleOptions& opts,
                         CaseOutcome& out) {
  const bool par = c.tiles > 1;
  const SimProbe base = run_workload_once(c, c.queue, par);
  ++out.sub_runs;
  out.fingerprint = base.fingerprint;
  out.makespan = base.makespan;
  mark_cells(out, c, c.queue, par);
  if (base.budget_hit)
    violate(out, "liveness.budget", "base run: " + base.describe());

  check_twins(
      c, opts, out, base, par,
      [&](sim::QueuePolicy policy, bool parallel) {
        return run_workload_once(c, policy, parallel);
      },
      "sequential");
}

// ----------------------------------------------------------- fault pipeline

fault::ScenarioConfig scenario_config(const CampaignCase& c,
                                      sim::QueuePolicy policy,
                                      std::uint32_t threads) {
  fault::ScenarioConfig sc;
  sc.cores = c.cores;
  sc.mesh = c.mesh;
  sc.seed = c.seed;
  sc.items = c.items;
  sc.compute_cycles = c.compute_cycles;
  sc.policy = c.recovery;
  sc.watchdog_timeout = c.watchdog_timeout;
  sc.queue = policy;
  sc.threads = threads;
  return sc;
}

/// The deterministic fields two twin runs must agree on, folded into one
/// comparable digest-with-description.
struct FaultProbe {
  fault::ScenarioOutcome o;

  [[nodiscard]] bool operator==(const FaultProbe& b) const {
    const fault::ScenarioOutcome& x = o;
    const fault::ScenarioOutcome& y = b.o;
    return x.items_done == y.items_done && x.finish_time == y.finish_time &&
           x.makespan == y.makespan && x.deadlocked == y.deadlocked &&
           x.faults_injected == y.faults_injected && x.crashes == y.crashes &&
           x.recoveries == y.recoveries && x.restarts == y.restarts &&
           x.remaps == y.remaps && x.sem_releases == y.sem_releases &&
           x.watchdog_expiries == y.watchdog_expiries &&
           x.sem_skips == y.sem_skips && x.items_dropped == y.items_dropped &&
           x.gave_up == y.gave_up && x.alien_items == y.alien_items &&
           x.duplicate_items == y.duplicate_items &&
           x.chan_sent == y.chan_sent && x.chan_received == y.chan_received &&
           x.chan_buffered == y.chan_buffered &&
           x.compute_integrity_violations == y.compute_integrity_violations &&
           x.trace_fingerprint == y.trace_fingerprint;
  }
  [[nodiscard]] std::string describe() const {
    return strformat("fp=%016llx done=%llu/%llu makespan=%llu%s%s",
                     static_cast<unsigned long long>(o.trace_fingerprint),
                     static_cast<unsigned long long>(o.items_done),
                     static_cast<unsigned long long>(o.items_target),
                     static_cast<unsigned long long>(o.makespan),
                     o.deadlocked ? " deadlocked" : "",
                     o.gave_up ? " gave_up" : "");
  }
};

void run_fault_family(const CampaignCase& c, const OracleOptions& opts,
                      CaseOutcome& out) {
  const bool par = c.tiles > 1;
  const FaultProbe base{
      fault::run_fault_plan(scenario_config(c, c.queue, c.tiles), c.plan)};
  ++out.sub_runs;
  const fault::ScenarioOutcome& o = base.o;
  out.fingerprint = o.trace_fingerprint;
  out.makespan = o.makespan;
  mark_cells(out, c, c.queue, par);

  if (o.alien_items != 0 || o.duplicate_items != 0 ||
      o.items_done > o.items_target)
    violate(out, "conservation.items",
            strformat("alien=%llu duplicate=%llu done=%llu target=%llu",
                      static_cast<unsigned long long>(o.alien_items),
                      static_cast<unsigned long long>(o.duplicate_items),
                      static_cast<unsigned long long>(o.items_done),
                      static_cast<unsigned long long>(o.items_target)));
  if (o.chan_sent != o.chan_received + o.chan_buffered)
    violate(out, "conservation.channel",
            strformat("sent=%llu received=%llu buffered=%llu",
                      static_cast<unsigned long long>(o.chan_sent),
                      static_cast<unsigned long long>(o.chan_received),
                      static_cast<unsigned long long>(o.chan_buffered)));
  if (o.compute_integrity_violations != 0)
    violate(out, "integrity.compute",
            strformat("%llu mismatched compute retirements",
                      static_cast<unsigned long long>(
                          o.compute_integrity_violations)));
  if (o.hit_event_budget)
    violate(out, "liveness.budget", "scenario hit its event budget");
  if (c.plan.empty() && c.recovery == fault::RecoveryPolicy::kNone &&
      (o.deadlocked || o.items_done != o.items_target))
    violate(out, "liveness.fault_free", "no faults, yet " + base.describe());

  check_twins(
      c, opts, out, base, par,
      [&](sim::QueuePolicy policy, bool parallel) {
        return FaultProbe{fault::run_fault_plan(
            scenario_config(c, policy, parallel ? c.tiles : 1), c.plan)};
      },
      "threads=1");
}

// -------------------------------------------------------------------- maps

SimProbe run_maps_once(const CampaignCase& c, const maps::TaskGraph& g,
                       const std::vector<std::size_t>& task_to_pe,
                       sim::QueuePolicy policy, bool parallel) {
  sim::Platform plat(c.platform_config(policy, parallel));
  vpdebug::ExecutionRecorder rec(plat);
  const TimePs makespan = maps::execute_on_platform(g, task_to_pe, plat);
  SimProbe p;
  p.fingerprint = rec.fingerprint();
  p.makespan = makespan;
  p.events = rec.events();
  return p;
}

void run_maps_family(const CampaignCase& c, const OracleOptions& opts,
                     CaseOutcome& out) {
  const maps::TaskGraph g = build_case_graph(c);
  const sim::PlatformConfig pc = c.platform_config(c.queue, c.tiles > 1);
  const std::vector<maps::PeDesc> pes = maps::pes_from_platform(pc);
  const maps::CommCost comm = maps::comm_cost_from_platform(pc);
  const maps::MappingResult mapping = c.dynamic_mapper
                                          ? maps::dynamic_schedule(g, pes, comm)
                                          : maps::heft_map(g, pes, comm);

  lint::Target target;
  target.name = "fuzz_maps";
  target.task_graph = &g;
  target.task_to_pe = mapping.task_to_pe;
  target.platform = &pc;
  const lint::PerfContract contract = lint::compute_perf_contract(target);

  const bool par = c.tiles > 1;
  const SimProbe base = run_maps_once(c, g, mapping.task_to_pe, c.queue, par);
  ++out.sub_runs;
  out.fingerprint = base.fingerprint;
  out.makespan = base.makespan;
  mark_cells(out, c, c.queue, par);

  if (!contract.has_makespan) {
    violate(out, "bound.makespan", "contract has no makespan part");
  } else if (base.makespan > contract.makespan.bound.bound) {
    violate(out, "bound.makespan",
            strformat("replay %llu ps exceeds static bound %llu ps",
                      static_cast<unsigned long long>(base.makespan),
                      static_cast<unsigned long long>(
                          contract.makespan.bound.bound)));
  }

  check_twins(
      c, opts, out, base, par,
      [&](sim::QueuePolicy policy, bool parallel) {
        return run_maps_once(c, g, mapping.task_to_pe, policy, parallel);
      },
      "sequential");
}

// --------------------------------------------------------------------- ert

struct ErtProbe {
  struct Tenant {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t fingerprint = 0;
    [[nodiscard]] bool operator==(const Tenant&) const = default;
  };
  std::vector<Tenant> tenants;
  [[nodiscard]] bool operator==(const ErtProbe&) const = default;
};

ErtProbe run_ert_once(const CampaignCase& c) {
  // The whole job stream is a pure function of the case: tenant shapes
  // and arrivals come from a seed-derived stream, specs from the shared
  // template registry.
  Rng rng(c.seed ^ 0x6572745f72756e73ULL);
  ert::ServiceConfig scfg;
  scfg.total_cores = c.cores * 2;  // room for a carve-out plus sharers
  scfg.static_admission = c.static_admission;
  ert::Service service(scfg);

  const std::vector<std::string> templates = ert::template_names();
  std::vector<ert::Session> sessions;
  for (std::uint32_t i = 0; i < c.tenants; ++i) {
    ert::TenantConfig tc;
    tc.name = strformat("t%u", i);
    tc.share = 0.25 * static_cast<double>(1 + rng.next_below(4));
    tc.reserved = rng.next_bool(0.2);
    if (rng.next_bool(0.25)) tc.max_pending = 1 + rng.next_below(3);
    auto session = service.open_session(tc);
    if (!session.ok()) {
      // Reservation would not fit — retry the same tenant unreserved
      // (deterministic: depends only on the draws so far).
      tc.reserved = false;
      session = service.open_session(tc);
    }
    sessions.push_back(session.value());
  }

  TimePs arrival = 0;
  for (std::uint32_t j = 0; j < c.jobs_per_tenant; ++j) {
    for (ert::Session& s : sessions) {
      ert::JobSpec spec = ert::make_template(
          templates[rng.next_below(templates.size())], c.scale);
      arrival += nanoseconds(rng.next_below(30'000));
      spec.arrival = arrival;
      (void)s.submit(std::move(spec));
    }
  }
  service.drain();

  ErtProbe p;
  for (const ert::TenantStats& ts : service.all_tenant_stats())
    p.tenants.push_back({ts.submitted, ts.completed, ts.rejected,
                         ts.deadline_misses, ts.fingerprint});
  return p;
}

void run_ert_family(const CampaignCase& c, const OracleOptions& opts,
                    CaseOutcome& out) {
  const ErtProbe base = run_ert_once(c);
  ++out.sub_runs;
  out.cells.push_back({Family::kErt, CoverageCell::kFaultFree,
                       sim::QueuePolicy::kCalendar, false});

  for (std::size_t i = 0; i < base.tenants.size(); ++i) {
    const ErtProbe::Tenant& t = base.tenants[i];
    if (t.completed + t.rejected != t.submitted ||
        t.submitted != c.jobs_per_tenant)
      violate(out, "ert.accounting",
              strformat("tenant %zu: submitted=%llu completed=%llu "
                        "rejected=%llu",
                        i, static_cast<unsigned long long>(t.submitted),
                        static_cast<unsigned long long>(t.completed),
                        static_cast<unsigned long long>(t.rejected)));
  }

  if (opts.rerun_twin) {
    const ErtProbe again = run_ert_once(c);
    ++out.sub_runs;
    if (!(again == base))
      violate(out, "determinism.rerun", "ert rerun diverged");
  }
}

}  // namespace

const std::vector<std::string>& invariant_names() {
  static const std::vector<std::string> names = {
      "determinism.rerun",  "determinism.policy",  "determinism.exec",
      "liveness.budget",    "liveness.fault_free", "conservation.items",
      "conservation.channel", "integrity.compute", "bound.makespan",
      "ert.accounting",
  };
  return names;
}

maps::TaskGraph build_case_graph(const CampaignCase& c) {
  Rng rng(c.seed ^ 0x6d6170735f676e72ULL);
  maps::TaskGraph g;
  g.name = "fuzz_graph";
  std::vector<maps::TaskNodeId> ids;
  for (std::uint32_t i = 0; i < c.graph_tasks; ++i)
    ids.push_back(
        g.add_task(strformat("t%u", i), 1'000 + rng.next_below(20'000)));
  // A chain keeps the graph connected (and acyclic: edges only go
  // forward); extra forward edges add communication pressure.
  for (std::uint32_t i = 1; i < c.graph_tasks; ++i)
    g.add_edge(ids[i - 1], ids[i], 64 + rng.next_below(4'096));
  for (std::uint32_t i = 0; i + 2 < c.graph_tasks; ++i)
    for (std::uint32_t j = i + 2; j < c.graph_tasks; ++j)
      if (rng.next_bool(2.0 / static_cast<double>(c.graph_tasks)))
        g.add_edge(ids[i], ids[j], 64 + rng.next_below(4'096));
  return g;
}

CaseOutcome run_case(const CampaignCase& c, const OracleOptions& opts) {
  CaseOutcome out;
  switch (c.family) {
    case Family::kPipeline:
    case Family::kForkjoin:
    case Family::kSharedHammer:
    case Family::kTiledPipeline:
      run_workload_family(c, opts, out);
      break;
    case Family::kFaultPipeline:
      run_fault_family(c, opts, out);
      break;
    case Family::kMaps:
      run_maps_family(c, opts, out);
      break;
    case Family::kErt:
      run_ert_family(c, opts, out);
      break;
  }
  return out;
}

}  // namespace rw::fuzz
