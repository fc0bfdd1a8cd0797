// rw::fault policy layer: retry budgets, seed-reproducible plans, the
// E14 scenario under directed and random faults, and degradation-aware
// remapping in maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.hpp"
#include "common/strings.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "fault/scenario.hpp"
#include "maps/mapping.hpp"

namespace rw::fault {
namespace {

/// The plan's rw-fault-plan-1 document.
std::string plan_json(const FaultPlan& plan) {
  json::Writer w;
  plan.write_json(w);
  return w.str();
}

/// The timeline's records as JSON.
std::string timeline_json(const FaultTimeline& timeline) {
  json::Writer w;
  timeline.write_json(w);
  return w.str();
}

/// Count of records whose `what` starts with `prefix`.
std::size_t count_prefix(const FaultTimeline& timeline,
                         std::string_view prefix) {
  return static_cast<std::size_t>(std::count_if(
      timeline.records().begin(), timeline.records().end(),
      [&](const FaultRecord& r) { return r.what.starts_with(prefix); }));
}

TEST(RetryPolicy, ExponentialBackoffAndBudget) {
  RetryPolicy r;
  r.max_attempts = 4;
  r.initial_delay = nanoseconds(500);
  r.multiplier = 2;
  EXPECT_EQ(r.delay_for(0), nanoseconds(500));
  EXPECT_EQ(r.delay_for(1), nanoseconds(1000));
  EXPECT_EQ(r.delay_for(3), nanoseconds(4000));
  EXPECT_EQ(r.total_budget(), nanoseconds(500 + 1000 + 2000 + 4000));
}

RandomSpec busy_spec() {
  RandomSpec spec;
  spec.rate_per_ms = 200.0;
  spec.window_start = microseconds(10);
  spec.window_end = microseconds(400);
  spec.num_cores = 4;
  spec.num_links = 8;
  spec.mem_base = 0x1000;
  spec.mem_size = 0x800;
  return spec;
}

TEST(FaultPlanRandom, SameSeedSamePlanDifferentSeedDifferentPlan) {
  const RandomSpec spec = busy_spec();
  const FaultPlan a = FaultPlan::random(13, spec);
  const FaultPlan b = FaultPlan::random(13, spec);
  const FaultPlan c = FaultPlan::random(14, spec);
  ASSERT_GT(a.size(), 10u);
  EXPECT_EQ(plan_json(a), plan_json(b));
  EXPECT_NE(plan_json(a), plan_json(c));
}

TEST(FaultPlanRandom, EventsLandInsideTheWindowSorted) {
  const RandomSpec spec = busy_spec();
  const auto events = FaultPlan::random(7, spec).events();
  ASSERT_FALSE(events.empty());
  TimePs prev = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.time, spec.window_start);
    EXPECT_LT(e.time, spec.window_end);
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(FaultPlanRandom, CrashOnlyWeightsRestrictKinds) {
  RandomSpec spec = busy_spec();
  spec.weight_stall = spec.weight_degrade = spec.weight_drop = 0;
  spec.weight_bitflip = spec.weight_dma_abort = 0;
  spec.weight_irq_drop = spec.weight_irq_spurious = 0;
  spec.weight_crash = 1;
  const auto events = FaultPlan::random(21, spec).events();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_EQ(e.kind, FaultKind::kCoreCrash);
    EXPECT_LT(e.target, spec.num_cores);
  }
}

ScenarioConfig small_cfg(RecoveryPolicy policy) {
  ScenarioConfig cfg;
  cfg.cores = 4;
  cfg.seed = 1;
  cfg.items = 16;
  cfg.policy = policy;
  return cfg;
}

TEST(Scenario, FaultFreeRunsDeliverEverythingUnderEveryPolicy) {
  for (RecoveryPolicy policy :
       {RecoveryPolicy::kNone, RecoveryPolicy::kWatchdogRestart,
        RecoveryPolicy::kWatchdogRemap}) {
    const ScenarioOutcome out = run_fault_scenario(small_cfg(policy));
    EXPECT_EQ(out.items_done, out.items_target) << recovery_policy_name(policy);
    EXPECT_DOUBLE_EQ(out.goodput, 1.0);
    EXPECT_FALSE(out.deadlocked);
    EXPECT_EQ(out.faults_injected, 0u);
    EXPECT_EQ(out.crashes, 0u);
    // healthy_makespan is the sink's completion time; the drained kernel
    // time only exceeds it by the watchdog's final no-op tail (if any).
    EXPECT_EQ(out.finish_time, out.healthy_makespan);
    EXPECT_GE(out.makespan, out.healthy_makespan);
  }
}

TEST(Scenario, DirectedCrashDeadlocksWithoutRecoveryAndHealsWithIt) {
  FaultPlan crash;
  crash.crash_core(microseconds(20), 1);

  ScenarioConfig none = small_cfg(RecoveryPolicy::kNone);
  none.explicit_plan = &crash;
  const ScenarioOutcome dead = run_fault_scenario(none);
  EXPECT_TRUE(dead.deadlocked);
  EXPECT_LT(dead.goodput, 1.0);
  EXPECT_EQ(dead.recoveries, 0u);

  for (RecoveryPolicy policy :
       {RecoveryPolicy::kWatchdogRestart, RecoveryPolicy::kWatchdogRemap}) {
    ScenarioConfig cfg = small_cfg(policy);
    cfg.explicit_plan = &crash;
    const ScenarioOutcome out = run_fault_scenario(cfg);
    EXPECT_DOUBLE_EQ(out.goodput, 1.0) << recovery_policy_name(policy);
    EXPECT_FALSE(out.deadlocked);
    EXPECT_EQ(out.crashes, 1u);
    EXPECT_GE(out.recoveries, 1u);
    // Detection is watchdog-bounded: the supervisor cannot take longer
    // than a few watchdog periods to notice and act.
    EXPECT_GT(out.max_recovery_latency, 0u);
    EXPECT_LE(out.max_recovery_latency, 3 * cfg.watchdog_timeout);
    EXPECT_GE(count_prefix(out.timeline, "recovery."), 1u);
  }
}

TEST(Scenario, RecoveryPoliciesBeatNoneUnderACrashStorm) {
  auto goodput = [](RecoveryPolicy policy) {
    ScenarioConfig cfg = small_cfg(policy);
    cfg.items = 24;
    cfg.fault_rate_per_ms = 40.0;
    cfg.crashes_only = true;
    return run_fault_scenario(cfg).goodput;
  };
  const double none = goodput(RecoveryPolicy::kNone);
  const double restart = goodput(RecoveryPolicy::kWatchdogRestart);
  const double remap = goodput(RecoveryPolicy::kWatchdogRemap);
  EXPECT_LT(none, 1.0);  // the storm actually hurts the unprotected run
  EXPECT_GE(restart, none);
  EXPECT_GE(remap, none);
  EXPECT_GT(restart, 0.9);  // restart keeps the pipeline essentially alive
}

TEST(Scenario, EqualConfigsProduceByteIdenticalTimelines) {
  ScenarioConfig cfg = small_cfg(RecoveryPolicy::kWatchdogRestart);
  cfg.fault_rate_per_ms = 60.0;
  const ScenarioOutcome a = run_fault_scenario(cfg);
  const ScenarioOutcome b = run_fault_scenario(cfg);
  ASSERT_GT(a.faults_injected, 0u);
  EXPECT_EQ(timeline_json(a.timeline), timeline_json(b.timeline));
  EXPECT_EQ(a.items_done, b.items_done);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.to_metrics().sim_equal(b.to_metrics()), true);
}

TEST(Scenario, MetricsCarryTheFaultExtras) {
  ScenarioConfig cfg = small_cfg(RecoveryPolicy::kWatchdogRestart);
  cfg.fault_rate_per_ms = 20.0;
  const RunMetrics m = run_fault_scenario(cfg).to_metrics();
  EXPECT_GE(m.extra_or("fault.goodput", -1.0), 0.0);
  EXPECT_GE(m.extra_or("fault.injected", -1.0), 1.0);
  EXPECT_GE(m.extra_or("fault.healthy_makespan_ps", -1.0), 1.0);
}

/// A plan mixing every kind the pipeline feels: a stall, a fabric
/// degrade, packet drops, a bit flip in the shared region and a crash.
FaultPlan mixed_plan() {
  FaultPlan plan;
  plan.degrade_fabric(microseconds(5), 1.5);
  plan.drop_packets(microseconds(8), 2);
  plan.stall_core(microseconds(12), 2, microseconds(6));
  plan.flip_bit(microseconds(14), 0x8000'0040, 3);
  plan.crash_core(microseconds(20), 1);
  return plan;
}

/// Every ScenarioOutcome field in one comparable line, the timeline as a
/// digest of its JSON; healthy_makespan only when `with_healthy`.
std::string outcome_line(const ScenarioOutcome& o, bool with_healthy) {
  using ull = unsigned long long;
  std::string line = strformat(
      "done=%llu/%llu goodput=%.17g finish=%llu makespan=%llu dead=%d "
      "faults=%llu crashes=%llu rec=%llu restarts=%llu remaps=%llu "
      "semrel=%llu wdt=%llu skips=%llu dropped=%llu gave_up=%d "
      "maxlat=%llu totlat=%llu alien=%llu dup=%llu chan=%llu/%llu/%llu "
      "integrity=%llu fp=%016llx budget=%d timeline=%016llx",
      ull{o.items_done}, ull{o.items_target}, o.goodput, ull{o.finish_time},
      ull{o.makespan}, o.deadlocked ? 1 : 0, ull{o.faults_injected},
      ull{o.crashes}, ull{o.recoveries}, ull{o.restarts}, ull{o.remaps},
      ull{o.sem_releases}, ull{o.watchdog_expiries}, ull{o.sem_skips},
      ull{o.items_dropped}, o.gave_up ? 1 : 0, ull{o.max_recovery_latency},
      ull{o.total_recovery_latency}, ull{o.alien_items},
      ull{o.duplicate_items}, ull{o.chan_sent}, ull{o.chan_received},
      ull{o.chan_buffered}, ull{o.compute_integrity_violations},
      ull{o.trace_fingerprint}, o.hit_event_budget ? 1 : 0,
      ull{fnv::fold(fnv::kOffset, timeline_json(o.timeline))});
  if (with_healthy)
    line += strformat(" healthy=%llu", ull{o.healthy_makespan});
  return line;
}

TEST(ScenarioPlan, OneRunEqualsTheScenarioUnderTheSamePlan) {
  const FaultPlan empty;
  const FaultPlan mixed = mixed_plan();
  for (RecoveryPolicy policy :
       {RecoveryPolicy::kNone, RecoveryPolicy::kWatchdogRestart,
        RecoveryPolicy::kWatchdogRemap}) {
    for (const FaultPlan* plan : {&empty, &mixed}) {
      for (sim::QueuePolicy queue :
           {sim::QueuePolicy::kCalendar, sim::QueuePolicy::kBinaryHeap}) {
        for (std::uint32_t threads : {1u, 2u}) {
          for (bool mesh : {false, true}) {
            ScenarioConfig cfg = small_cfg(policy);
            cfg.queue = queue;
            cfg.threads = threads;
            cfg.mesh = mesh;
            const std::string where = strformat(
                "%s plan=%zu %s threads=%u %s", recovery_policy_name(policy),
                plan->size(), sim::queue_policy_name(queue), threads,
                mesh ? "mesh" : "bus");
            const ScenarioOutcome one = run_fault_plan(cfg, *plan);
            cfg.explicit_plan = plan;
            const ScenarioOutcome full = run_fault_scenario(cfg);
            EXPECT_EQ(one.healthy_makespan, 0u) << where;
            EXPECT_GT(full.healthy_makespan, 0u) << where;
            EXPECT_EQ(outcome_line(one, false), outcome_line(full, false))
                << where;
            EXPECT_EQ(timeline_json(one.timeline),
                      timeline_json(full.timeline))
                << where;
          }
        }
      }
    }
  }
}

TEST(ScenarioPlan, IgnoresTheRateAndTheExplicitPlanOfItsConfig) {
  const FaultPlan crash = FaultPlan().crash_core(microseconds(20), 1);
  ScenarioConfig plain = small_cfg(RecoveryPolicy::kWatchdogRestart);
  ScenarioConfig noisy = plain;
  noisy.fault_rate_per_ms = 80.0;
  noisy.explicit_plan = &crash;
  const FaultPlan empty;
  EXPECT_EQ(outcome_line(run_fault_plan(plain, empty), true),
            outcome_line(run_fault_plan(noisy, empty), true));
}

/// Explicit-plan configs under a recovery policy: the runs whose
/// policy-independent reference is not made. Outcomes pinned from the
/// version that still made it.
TEST(ScenarioPlan, ExplicitPlanOutcomesUnderRecoveryArePinned) {
  const FaultPlan crash = FaultPlan().crash_core(microseconds(20), 1);
  const FaultPlan mixed = mixed_plan();
  struct Pin {
    RecoveryPolicy policy;
    const FaultPlan* plan;
    bool mesh;
    std::uint32_t threads;
    sim::QueuePolicy queue;
    const char* line;
  };
  const Pin pins[] = {
      {RecoveryPolicy::kWatchdogRestart, &crash, false, 1,
       sim::QueuePolicy::kCalendar,
       "done=16/16 goodput=1 finish=185410000 makespan=235410000 "
       "dead=0 faults=1 crashes=1 rec=1 restarts=1 remaps=0 semrel=0 "
       "wdt=1 skips=0 dropped=0 gave_up=0 maxlat=62560000 "
       "totlat=62560000 alien=0 dup=0 chan=85/85/0 integrity=0 "
       "fp=4d79550a671d75b2 budget=0 timeline=c7a949b89a16116e "
       "healthy=125737500"},
      {RecoveryPolicy::kWatchdogRemap, &crash, false, 1,
       sim::QueuePolicy::kBinaryHeap,
       "done=16/16 goodput=1 finish=265500000 makespan=315500000 "
       "dead=0 faults=1 crashes=1 rec=1 restarts=0 remaps=1 semrel=0 "
       "wdt=1 skips=15 dropped=0 gave_up=0 maxlat=62560000 "
       "totlat=62560000 alien=0 dup=0 chan=85/85/0 integrity=0 "
       "fp=49fa413487136b82 budget=0 timeline=2489ce08490df4d3 "
       "healthy=125737500"},
      {RecoveryPolicy::kWatchdogRestart, &mixed, true, 2,
       sim::QueuePolicy::kCalendar,
       "done=16/16 goodput=1 finish=190940000 makespan=240940000 "
       "dead=0 faults=5 crashes=1 rec=1 restarts=1 remaps=0 semrel=0 "
       "wdt=1 skips=0 dropped=0 gave_up=0 maxlat=68090000 "
       "totlat=68090000 alien=0 dup=0 chan=85/85/0 integrity=0 "
       "fp=9597932c6c6f1281 budget=0 timeline=afa9bf4ccea64ca9 "
       "healthy=125737500"},
      {RecoveryPolicy::kWatchdogRemap, &mixed, true, 1,
       sim::QueuePolicy::kCalendar,
       "done=16/16 goodput=1 finish=271030000 makespan=321030000 "
       "dead=0 faults=5 crashes=1 rec=1 restarts=0 remaps=1 semrel=0 "
       "wdt=1 skips=15 dropped=0 gave_up=0 maxlat=68090000 "
       "totlat=68090000 alien=0 dup=0 chan=85/85/0 integrity=0 "
       "fp=647087cd71afda48 budget=0 timeline=28b0abceecde6120 "
       "healthy=125737500"},
  };
  for (const Pin& pin : pins) {
    ScenarioConfig cfg = small_cfg(pin.policy);
    cfg.explicit_plan = pin.plan;
    cfg.mesh = pin.mesh;
    cfg.threads = pin.threads;
    cfg.queue = pin.queue;
    EXPECT_EQ(outcome_line(run_fault_scenario(cfg), true), pin.line)
        << recovery_policy_name(pin.policy) << " plan=" << pin.plan->size()
        << (pin.mesh ? " mesh" : " bus");
  }
}

}  // namespace
}  // namespace rw::fault

namespace rw::maps {
namespace {

std::vector<PeDesc> homogeneous_pes(std::size_t n) {
  return std::vector<PeDesc>(n, PeDesc{sim::PeClass::kRisc, mhz(400)});
}

TaskGraph fork_join_graph(int width) {
  TaskGraph g;
  const auto src = g.add_task("src", 500);
  const auto join = g.add_task("join", 500);
  for (int i = 0; i < width; ++i) {
    const auto t = g.add_task("mid" + std::to_string(i), 20'000);
    g.add_edge(src, t, 256);
    g.add_edge(t, join, 256);
  }
  return g;
}

TEST(Degradation, RemapEvictsEveryTaskFromTheDeadPe) {
  const TaskGraph g = fork_join_graph(6);
  const auto pes = homogeneous_pes(4);
  const CommCost comm = simple_comm_cost(nanoseconds(100), 0.004);
  const MappingResult healthy = heft_map(g, pes, comm);

  const std::size_t dead = healthy.task_to_pe[2];  // a PE that has work
  std::size_t originally_on_dead = 0;
  for (std::size_t pe : healthy.task_to_pe)
    if (pe == dead) ++originally_on_dead;
  ASSERT_GT(originally_on_dead, 0u);

  const DegradationReport rep =
      remap_on_failure(g, pes, comm, healthy.task_to_pe, dead);
  EXPECT_EQ(rep.dead_pe, dead);
  EXPECT_EQ(rep.moved_tasks, originally_on_dead);
  EXPECT_EQ(rep.healthy_makespan, healthy.makespan);
  for (std::size_t pe : rep.remap_task_to_pe) EXPECT_NE(pe, dead);
  for (std::size_t pe : rep.oracle_task_to_pe) EXPECT_NE(pe, dead);

  // Losing a loaded PE cannot speed things up, and the greedy online
  // remap cannot beat the hindsight oracle.
  EXPECT_GE(rep.remap_makespan, rep.healthy_makespan);
  EXPECT_GE(rep.remap_makespan, rep.oracle_makespan);
  EXPECT_GE(rep.remap_vs_oracle(), 1.0);
  EXPECT_GE(rep.degradation_vs_healthy(), 1.0);
}

TEST(Degradation, OracleReplanNeverUsesTheDeadPe) {
  const TaskGraph g = fork_join_graph(5);
  const auto pes = homogeneous_pes(3);
  const MappingResult replan =
      replan_survivors(g, pes, simple_comm_cost(nanoseconds(100), 0.004), 1);
  ASSERT_EQ(replan.task_to_pe.size(), g.tasks().size());
  std::set<std::size_t> used(replan.task_to_pe.begin(),
                             replan.task_to_pe.end());
  EXPECT_FALSE(used.contains(1));
  EXPECT_GT(replan.makespan, 0u);
}

}  // namespace
}  // namespace rw::maps
