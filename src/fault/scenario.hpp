// Fault/recovery experiment scenario (rw::fault, experiment E14).
//
// One deterministic streaming pipeline — source -> one stage per core ->
// sink — run fault-free to learn the healthy makespan, then under an
// explicit or seed-derived FaultPlan with the chosen recovery policy. Stages
// guard a shared scratch area with a hardware semaphore (the livelock
// bait) and, when recovery is enabled, use Channel timeout/retry
// primitives instead of blocking forever; the sink kicks the watchdog on
// every item. The outcome is goodput (items delivered / items offered),
// recovery latency, and the full fault/recovery timeline — everything
// BENCH_fault.json and the rwfault CLI report.
#pragma once

#include <cstdint>
#include <string>

#include "common/run_metrics.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "sim/kernel.hpp"

namespace rw::fault {

struct ScenarioConfig {
  std::size_t cores = 4;
  bool mesh = false;
  std::uint64_t seed = 1;
  std::uint64_t items = 48;              // items offered to the pipeline
  std::uint64_t compute_cycles = 2000;   // per stage per item (plus jitter)
  double fault_rate_per_ms = 0.0;        // random-plan arrival rate
  RecoveryPolicy policy = RecoveryPolicy::kNone;
  DurationPs watchdog_timeout = microseconds(50);
  bool crashes_only = false;             // restrict the random plan to
                                         // core crashes (policy ablations)
  /// Event-queue policy for the simulation kernel. Outcomes and
  /// timelines are bit-identical across policies — the fuzz oracle's
  /// determinism.policy invariant checks exactly that.
  sim::QueuePolicy queue = sim::QueuePolicy::kCalendar;
  /// When set, used instead of the random plan (rwfault --plan-* paths,
  /// directed tests). The random plan is windowed to twice the healthy
  /// makespan so faults land while work is actually in flight.
  const FaultPlan* explicit_plan = nullptr;

  /// Simulation-kernel tile partitions (set by the fuzz oracle and
  /// perfbench). 1 = the plain sequential kernel; >1 runs the conservative tiled engine in parallel
  /// mode. The scenario's own state stays on tile 0, so outcomes and
  /// timelines are bit-identical for every value — this knob exists to
  /// prove exactly that on the fault corpus.
  std::uint32_t threads = 1;
};

struct ScenarioOutcome {
  std::uint64_t items_target = 0;
  std::uint64_t items_done = 0;
  double goodput = 0.0;             // items_done / items_target
  TimePs healthy_makespan = 0;      // fault-free reference run
  TimePs finish_time = 0;           // sink completion (0 = never finished)
  TimePs makespan = 0;              // simulated time when the run ended
  bool deadlocked = false;          // ended with items missing
  std::uint64_t faults_injected = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t restarts = 0;
  std::uint64_t remaps = 0;
  std::uint64_t sem_releases = 0;
  std::uint64_t watchdog_expiries = 0;
  std::uint64_t sem_skips = 0;      // shared-section entries abandoned
  std::uint64_t items_dropped = 0;  // send/recv retry budgets exhausted
  bool gave_up = false;
  DurationPs max_recovery_latency = 0;
  DurationPs total_recovery_latency = 0;
  FaultTimeline timeline;

  // Conservation accounting (the fuzz oracle's item-conservation
  // invariant). The sink validates every delivered id against the offered
  // set: an id outside [0, items_target) is alien (fabricated by a bug),
  // a repeated id is a duplicate. Channel totals must satisfy
  // sent == received + buffered at end of run.
  std::uint64_t alien_items = 0;
  std::uint64_t duplicate_items = 0;
  std::uint64_t chan_sent = 0;      // sum over pipeline channels
  std::uint64_t chan_received = 0;
  std::uint64_t chan_buffered = 0;  // still enqueued at end of run

  /// Compute blocks whose retirement did not match their reservation
  /// (wrong finish time or wrong cycle count). Always 0 on a correct
  /// kernel: a block retires exactly when and as it was reserved, and a
  /// crash-invalidated block never retires at all. The fuzz oracle's
  /// compute-integrity invariant — and the seeded-defect selftest's
  /// detection signal.
  std::uint64_t compute_integrity_violations = 0;

  /// ExecutionRecorder digest of the faulted run's full trace stream —
  /// canonical across queue policies, thread counts, and reruns.
  std::uint64_t trace_fingerprint = 0;
  /// True when the kernel stopped on the event budget instead of
  /// draining (runaway/livelock guard tripped).
  bool hit_event_budget = false;

  /// Flatten into harness metrics (extra keys prefixed "fault.").
  [[nodiscard]] RunMetrics to_metrics() const;
};

/// Run the scenario. Deterministic: equal configs produce byte-identical
/// timelines and equal outcomes, every time. Makes one fault-free run of
/// `cfg` for healthy_makespan; a random plan under a recovery policy adds
/// a fault-free kNone reference run that sizes its injection window; with
/// a plan, the outcome is that of run_fault_plan under it.
ScenarioOutcome run_fault_scenario(const ScenarioConfig& cfg);

/// One pipeline run of `cfg` under `plan`, and nothing else: ignores
/// cfg.fault_rate_per_ms and cfg.explicit_plan and leaves
/// healthy_makespan at 0. Every other field equals what
/// run_fault_scenario returns for `cfg` with explicit_plan = &plan. The
/// fuzz oracle's fault probe is this one simulation.
ScenarioOutcome run_fault_plan(const ScenarioConfig& cfg,
                               const FaultPlan& plan);

}  // namespace rw::fault
