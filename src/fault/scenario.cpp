#include "fault/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/watchdog.hpp"
#include "sim/channel.hpp"
#include "sim/platform.hpp"
#include "sim/process.hpp"
#include "vpdebug/replay.hpp"

namespace rw::fault {
namespace {

using ItemChannel = sim::Channel<std::uint64_t>;

/// End-of-stream marker flowing through the pipeline after the last item.
constexpr std::uint64_t kEndOfStream = UINT64_MAX;
/// Hardware-semaphore cell guarding the shared scratch section.
constexpr std::size_t kSharedCell = 0;
/// Runaway safety net for kernel.run(); a healthy E14 run is far below.
constexpr std::uint64_t kMaxEvents = 50'000'000;
/// Channel timeout/retry behaviour of the timed stages.
constexpr RetryPolicy kRetry{};

struct RunCtx {
  sim::Platform& plat;
  const ScenarioConfig& cfg;
  RecoverySupervisor* sup;  // nullptr under kNone
  WatchdogPeripheral* wdt;  // nullptr under kNone
  std::vector<std::unique_ptr<ItemChannel>> chans;  // cores + 1 of them
  std::uint64_t items_done = 0;
  std::uint64_t sem_skips = 0;
  std::uint64_t items_dropped = 0;
  TimePs finish_time = 0;
  bool finished = false;
  std::vector<bool> seen{};         // delivered-id set, sized items
  std::uint64_t alien_items = 0;     // delivered id not in [0, items)
  std::uint64_t duplicate_items = 0;  // delivered id seen twice

  [[nodiscard]] bool timed() const {
    return cfg.policy != RecoveryPolicy::kNone;
  }
  /// Where stage `s` runs right now: the supervisor's alias map redirects
  /// remapped stages to their survivor.
  [[nodiscard]] sim::Core& stage_core(std::size_t s) {
    const std::size_t logical = s % plat.core_count();
    return plat.core(sup ? sup->core_for(logical) : logical);
  }
};

/// Feeds item ids into the first channel, then the end-of-stream marker.
/// With recovery enabled it uses send_for + backoff and drops items whose
/// retry budget runs out (a crashed consumer must not wedge the producer);
/// under kNone it blocks forever — the deadlock E14 measures.
sim::Process source_proc(RunCtx& ctx) {
  ItemChannel& out = *ctx.chans.front();
  for (std::uint64_t i = 0; i <= ctx.cfg.items; ++i) {
    const std::uint64_t item = (i == ctx.cfg.items) ? kEndOfStream : i;
    if (ctx.timed()) {
      bool sent = false;
      for (int a = 0; a < kRetry.max_attempts && !sent; ++a) {
        const DurationPs budget =
            ctx.cfg.watchdog_timeout + kRetry.delay_for(a);
        sent = co_await out.send_for(item, budget);
      }
      if (!sent && item != kEndOfStream) ++ctx.items_dropped;
    } else {
      co_await out.send(item);
    }
  }
}

/// Pipeline stage s: recv -> compute on (possibly remapped) core s ->
/// semaphore-guarded shared section -> forward. The bounded semaphore spin
/// keeps kNone runs finite: a stage that cannot get the lock skips the
/// shared section instead of spinning events forever.
sim::Process stage_proc(RunCtx& ctx, std::size_t s) {
  ItemChannel& in = *ctx.chans[s];
  ItemChannel& out = *ctx.chans[s + 1];
  sim::Kernel& kernel = ctx.plat.kernel();
  sim::HwSemaphores& sems = ctx.plat.hwsem();
  Rng rng(ctx.cfg.seed * 0x9e3779b9ULL + 17 * s + 1);
  while (true) {
    std::uint64_t item = 0;
    if (ctx.timed()) {
      bool got = false;
      for (int a = 0; a < kRetry.max_attempts && !got; ++a) {
        const DurationPs budget =
            ctx.cfg.watchdog_timeout + kRetry.delay_for(a);
        if (const auto r = co_await in.recv_for(budget)) {
          item = *r;
          got = true;
        }
      }
      if (!got) co_return;  // upstream presumed dead for good
    } else {
      item = co_await in.recv();
    }

    if (item != kEndOfStream) {
      const Cycles jitter = rng.next_below(ctx.cfg.compute_cycles / 4 + 1);
      co_await ctx.stage_core(s).compute(ctx.cfg.compute_cycles + jitter,
                                         "e14.s" + std::to_string(s));
      // Shared scratch section. Re-resolve the core: the compute above may
      // have migrated to a survivor after a crash.
      sim::Core& core = ctx.stage_core(s);
      const sim::CoreId self = core.id();
      bool locked = false;
      for (int a = 0; a < 4 && !locked; ++a) {
        locked = sems.try_acquire(kSharedCell, self);
        if (!locked) co_await sim::delay(kernel, nanoseconds(800));
      }
      if (locked) {
        co_await ctx.stage_core(s).compute(ctx.cfg.compute_cycles / 8 + 1,
                                           "e14.shared" + std::to_string(s));
        // Conditional release: if we crashed inside the section, watchdog
        // recovery already force-released (possibly to another acquirer).
        if (sems.held(kSharedCell) && sems.holder(kSharedCell) == self)
          sems.release(kSharedCell, self);
      } else {
        ++ctx.sem_skips;
      }
    }

    if (ctx.timed()) {
      bool sent = false;
      for (int a = 0; a < kRetry.max_attempts && !sent; ++a) {
        const DurationPs budget =
            ctx.cfg.watchdog_timeout + kRetry.delay_for(a);
        sent = co_await out.send_for(item, budget);
      }
      if (!sent && item != kEndOfStream) ++ctx.items_dropped;
    } else {
      co_await out.send(item);
    }
    if (item == kEndOfStream) co_return;
  }
}

/// Counts delivered items; every delivery kicks the watchdog and notes
/// progress. On end-of-stream it disarms the watchdog so the run can wind
/// down; if its own retry budget runs dry the supervisor's futile-expiry
/// counter performs the disarm instead (and the run records gave_up).
sim::Process sink_proc(RunCtx& ctx) {
  ItemChannel& in = *ctx.chans.back();
  while (true) {
    std::uint64_t item = 0;
    if (ctx.timed()) {
      bool got = false;
      for (int a = 0; a < kRetry.max_attempts && !got; ++a) {
        const DurationPs budget =
            ctx.cfg.watchdog_timeout + kRetry.delay_for(a);
        if (const auto r = co_await in.recv_for(budget)) {
          item = *r;
          got = true;
        }
      }
      if (!got) co_return;  // pipeline presumed dead; supervisor winds down
    } else {
      item = co_await in.recv();
    }
    if (item == kEndOfStream) break;
    ++ctx.items_done;
    // Conservation bookkeeping: every delivered id must be one we offered,
    // exactly once. Anything else means a bug fabricated or replayed data.
    if (item >= ctx.cfg.items) {
      ++ctx.alien_items;
    } else if (ctx.seen[item]) {
      ++ctx.duplicate_items;
    } else {
      ctx.seen[item] = true;
    }
    if (ctx.wdt) ctx.wdt->kick();
    if (ctx.sup) ctx.sup->note_progress();
  }
  ctx.finished = true;
  ctx.finish_time = ctx.plat.kernel().now();
  if (ctx.sup) ctx.sup->finish();
}

/// Passive observer pairing every compute-block retirement with the
/// reservation that issued it; attached for its lifetime. Two checks:
///
///  * exact pairing — a correct kernel retires each block at exactly its
///    reserved finish with its reserved cycle count;
///  * no overtaken retirement — a valid (tag-checked) end event implies
///    the core never crashed between its reservation's issue and its
///    retirement, and since only Core::fail() rewinds busy_until_, every
///    reservation issued *after* it on that core must start at or after
///    the retired finish. A stale end event revalidated against a
///    re-issued block (the PR 5 bug class) breaks exactly this: it
///    retires the pre-crash reservation while the post-restart re-issue
///    — issued later, starting inside the abandoned window — is still
///    outstanding. Issue order matters: a crash can also abandon a
///    not-yet-started reservation whose stall-inflated start lies inside
///    the window of the restart's legitimately-retired re-issue, but
///    that abandoned block was issued *before* the retired one, so it is
///    exempt.
class IntegritySink final : public sim::Observer {
 public:
  explicit IntegritySink(sim::Platform& plat)
      : plat_(plat), outstanding_(plat.core_count()) {
    plat_.attach(*this);
  }
  ~IntegritySink() override { plat_.detach(*this); }

  void on_core_reserve(sim::CoreId core, Cycles cycles, TimePs start,
                       TimePs finish, HertzT freq) override {
    (void)freq;
    outstanding_[core.index()].push_back({start, finish, cycles});
  }
  void on_compute_block(sim::CoreId core, const std::string& label,
                        Cycles cycles, TimePs start,
                        TimePs finish) override {
    (void)label;
    auto& open = outstanding_[core.index()];
    const auto match =
        std::find_if(open.begin(), open.end(),
                     [&](const Reservation& r) { return r.start == start; });
    if (match == open.end()) {
      ++violations_;  // retired a block that was never reserved
      return;
    }
    if (match->finish != finish || match->cycles != cycles) ++violations_;
    const auto later = open.erase(match);
    for (auto j = later; j != open.end(); ++j) {
      if (j->start > start && j->start < finish) {
        ++violations_;  // overtaken: a newer window opened mid-block
      }
    }
  }

  [[nodiscard]] std::uint64_t violations() const { return violations_; }

 private:
  sim::Platform& plat_;
  struct Reservation {
    TimePs start;
    TimePs finish;
    Cycles cycles;
  };
  /// Per core, the reservations not yet retired, in issue order.
  std::vector<std::vector<Reservation>> outstanding_;
  std::uint64_t violations_ = 0;
};

/// The platform every run of `cfg` builds.
sim::PlatformConfig platform_config(const ScenarioConfig& cfg) {
  sim::PlatformConfig pc = sim::PlatformConfig::homogeneous(cfg.cores);
  pc.kernel.policy = cfg.queue;
  if (cfg.threads > 1) {
    pc.kernel.num_tiles = static_cast<std::uint32_t>(
        std::min<std::size_t>(cfg.threads, cfg.cores));
    pc.kernel.exec = sim::ExecMode::kParallel;
  }
  if (cfg.mesh) pc.use_square_mesh();
  return pc;
}

/// When a run of `o` ended: the sink's completion, or the drained
/// kernel's time when the sink never finished.
TimePs end_time(const ScenarioOutcome& o) {
  return o.finish_time != 0 ? o.finish_time : o.makespan;
}

}  // namespace

ScenarioOutcome run_fault_plan(const ScenarioConfig& cfg,
                               const FaultPlan& plan) {
  sim::Platform plat(platform_config(cfg));

  FaultInjector injector(plat, plan);
  injector.arm();

  std::unique_ptr<WatchdogPeripheral> wdt;
  std::unique_ptr<RecoverySupervisor> sup;
  if (cfg.policy != RecoveryPolicy::kNone) {
    wdt = std::make_unique<WatchdogPeripheral>(
        plat.kernel(), plat.tracer(), plat.irqc(),
        sim::InterruptController::kNumLines - 1);
    SupervisorConfig scfg;
    scfg.policy = cfg.policy;
    scfg.watchdog_timeout = cfg.watchdog_timeout;
    sup = std::make_unique<RecoverySupervisor>(plat, *wdt, scfg,
                                               &injector.timeline());
    sup->start();
  }

  RunCtx ctx{plat, cfg, sup.get(), wdt.get(), {}};
  ctx.seen.assign(cfg.items, false);
  for (std::size_t i = 0; i <= cfg.cores; ++i)
    ctx.chans.push_back(std::make_unique<ItemChannel>(
        plat.kernel(), 4, "e14.ch" + std::to_string(i)));

  vpdebug::ExecutionRecorder recorder(plat);
  IntegritySink integrity(plat);
  spawn(plat.kernel(), source_proc(ctx));
  for (std::size_t s = 0; s < cfg.cores; ++s)
    spawn(plat.kernel(), stage_proc(ctx, s));
  spawn(plat.kernel(), sink_proc(ctx));
  plat.run(kMaxEvents);

  ScenarioOutcome out;
  out.items_target = cfg.items;
  out.items_done = ctx.items_done;
  out.alien_items = ctx.alien_items;
  out.duplicate_items = ctx.duplicate_items;
  for (const auto& ch : ctx.chans) {
    out.chan_sent += ch->total_sent();
    out.chan_received += ch->total_received();
    out.chan_buffered += ch->size();
  }
  // Tile-0 digest, not the canonical multi-tile combination: the scenario
  // keeps every actor on tile 0, so this digest is identical for every
  // `threads` value — the combined form folds the tile count itself and
  // would differ between threads=1 and threads>1 builds of the same run.
  out.trace_fingerprint = recorder.tile_fingerprint(0);
  out.compute_integrity_violations = integrity.violations();
  std::uint64_t executed = 0;
  for (std::size_t t = 0; t < plat.tile_count(); ++t)
    executed += plat.tile_kernel(static_cast<std::uint32_t>(t))
                    .events_executed();
  out.hit_event_budget = executed >= kMaxEvents;
  out.goodput = cfg.items == 0 ? 1.0
                               : static_cast<double>(ctx.items_done) /
                                     static_cast<double>(cfg.items);
  out.finish_time = ctx.finish_time;
  out.makespan = plat.now();
  out.deadlocked = !ctx.finished;
  out.faults_injected = injector.applied();
  for (std::size_t c = 0; c < plat.core_count(); ++c)
    out.crashes += plat.core(c).fail_count();
  if (sup) {
    out.recoveries = sup->recoveries();
    out.restarts = sup->restarts();
    out.remaps = sup->remaps();
    out.sem_releases = sup->sem_releases();
    out.gave_up = sup->gave_up();
    out.max_recovery_latency = sup->max_recovery_latency();
    out.total_recovery_latency = sup->total_recovery_latency();
  }
  if (wdt) out.watchdog_expiries = wdt->expired_count();
  out.sem_skips = ctx.sem_skips;
  out.items_dropped = ctx.items_dropped;
  out.timeline = injector.merged_timeline();
  return out;
}

RunMetrics ScenarioOutcome::to_metrics() const {
  RunMetrics m;
  m.makespan = makespan;
  m.deadline_misses = items_target - items_done;  // undelivered items
  m.set_extra("fault.goodput", goodput);
  m.set_extra("fault.items_done", static_cast<double>(items_done));
  m.set_extra("fault.deadlocked", deadlocked ? 1.0 : 0.0);
  m.set_extra("fault.injected", static_cast<double>(faults_injected));
  m.set_extra("fault.crashes", static_cast<double>(crashes));
  m.set_extra("fault.recoveries", static_cast<double>(recoveries));
  m.set_extra("fault.restarts", static_cast<double>(restarts));
  m.set_extra("fault.remaps", static_cast<double>(remaps));
  m.set_extra("fault.sem_releases", static_cast<double>(sem_releases));
  m.set_extra("fault.wdt_expiries", static_cast<double>(watchdog_expiries));
  m.set_extra("fault.items_dropped", static_cast<double>(items_dropped));
  m.set_extra("fault.gave_up", gave_up ? 1.0 : 0.0);
  m.set_extra("fault.max_recovery_latency_ps",
              static_cast<double>(max_recovery_latency));
  m.set_extra("fault.healthy_makespan_ps",
              static_cast<double>(healthy_makespan));
  m.set_extra("fault.alien_items", static_cast<double>(alien_items));
  m.set_extra("fault.duplicate_items",
              static_cast<double>(duplicate_items));
  m.set_extra("fault.integrity_violations",
              static_cast<double>(compute_integrity_violations));
  return m;
}

ScenarioOutcome run_fault_scenario(const ScenarioConfig& cfg) {
  // Up to three runs, each made only when something reads it:
  //
  //  * this policy's own fault-free baseline, the degradation denominator
  //    (healthy_makespan). It always runs.
  //  * the policy-independent reference (fault-free, kNone), which sizes a
  //    random plan's injection window. The window must be the same for
  //    every policy under test, or the policies would face different
  //    fault counts and the sweep would compare nothing; kNone's untimed
  //    communication makes it the natural anchor. It runs only for a
  //    random plan under a recovery policy: under kNone it is the
  //    baseline, and an explicit plan needs no window.
  //  * the faulted run, under the explicit or random plan, when there is
  //    one. Its outcome is what the call returns.
  const FaultPlan no_faults;
  ScenarioOutcome base = run_fault_plan(cfg, no_faults);
  const TimePs t0 = end_time(base);

  const bool has_faults =
      cfg.explicit_plan != nullptr || cfg.fault_rate_per_ms > 0.0;
  if (!has_faults) {
    base.healthy_makespan = t0;
    return base;
  }

  ScenarioOutcome out;
  if (cfg.explicit_plan != nullptr) {
    out = run_fault_plan(cfg, *cfg.explicit_plan);
  } else {
    TimePs t0_ref = t0;
    if (cfg.policy != RecoveryPolicy::kNone) {
      ScenarioConfig ref_cfg = cfg;
      ref_cfg.policy = RecoveryPolicy::kNone;
      t0_ref = end_time(run_fault_plan(ref_cfg, no_faults));
    }
    const sim::PlatformConfig pc = platform_config(cfg);
    RandomSpec spec;
    spec.rate_per_ms = cfg.fault_rate_per_ms;
    spec.window_start = 0;
    spec.window_end = 2 * t0_ref;  // faults land while work is in flight
    spec.num_cores = static_cast<std::uint32_t>(cfg.cores);
    spec.num_links = static_cast<std::uint32_t>(degradable_links(pc));
    spec.mem_base = sim::kSharedBase;
    spec.mem_size = pc.shared_mem_bytes;
    if (cfg.crashes_only) {
      // Legacy spelling of only_kind(kCoreCrash); also flattens the
      // weight so historical plans stay byte-identical.
      spec.weight_crash = 1;
      spec.only_kind(FaultKind::kCoreCrash);
    }
    out = run_fault_plan(cfg, FaultPlan::random(cfg.seed, spec));
  }
  out.healthy_makespan = t0;
  return out;
}

}  // namespace rw::fault
