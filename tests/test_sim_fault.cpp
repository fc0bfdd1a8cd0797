// rw::fault sim-layer corpus: core crash/recover/migrate/stall, DMA
// programming rejection + abort, IRQ drops, interconnect degradation,
// watchdog expiry/kick, the hwsem livelock breaker under injected core
// death, and the armed-but-empty-plan fingerprint identity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "fault/watchdog.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"
#include "sim/process.hpp"
#include "vpdebug/replay.hpp"

namespace rw::fault {
namespace {

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

using sim::Platform;
using sim::PlatformConfig;
using sim::Process;

Process compute_items(Platform& p, std::size_t core, int items, Cycles each,
                      int& done) {
  for (int i = 0; i < items; ++i) {
    co_await p.core(core).compute(each, "item");
    ++done;
  }
}

TEST(CoreFault, FailParksInFlightComputeUntilRecover) {
  Platform p(PlatformConfig::homogeneous(2));
  int done = 0;
  spawn(p.kernel(), compute_items(p, 0, 5, 4000, done));
  p.kernel().schedule_at(microseconds(25), [&] { p.core(0).fail(); });
  p.kernel().run();

  // Crashed mid-item-3: progress froze, the block parked, the core reports
  // the crash, and the simulation drained without the worker finishing.
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(p.core(0).failed());
  EXPECT_EQ(p.core(0).parked_count(), 1u);
  EXPECT_EQ(p.core(0).fail_count(), 1u);
  EXPECT_EQ(p.core(0).last_fail_time(), microseconds(25));
  EXPECT_EQ(p.core(0).current_label(), "<crashed>");

  p.core(0).recover();
  p.kernel().run();
  EXPECT_EQ(done, 5);
  EXPECT_FALSE(p.core(0).failed());
  EXPECT_EQ(p.core(0).parked_count(), 0u);
}

TEST(CoreFault, ComputeSubmittedWhileFailedParksImmediately) {
  Platform p(PlatformConfig::homogeneous(1));
  p.core(0).fail();
  int done = 0;
  spawn(p.kernel(), compute_items(p, 0, 1, 1000, done));
  p.kernel().run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(p.core(0).parked_count(), 1u);

  p.core(0).recover();
  p.kernel().run();
  EXPECT_EQ(done, 1);
}

TEST(CoreFault, MigrateParkedResumesOnSurvivor) {
  Platform p(PlatformConfig::homogeneous(2));
  int done = 0;
  spawn(p.kernel(), compute_items(p, 0, 3, 4000, done));
  p.kernel().schedule_at(microseconds(5), [&] {
    p.core(0).fail();
    EXPECT_EQ(p.core(0).migrate_parked(p.core(1)), 1u);
  });
  p.kernel().run();

  // The parked block re-executed on core 1 and the remaining iterations
  // follow it there via the retargeted awaitable's core pointer... the
  // loop re-submits to core 0, which is still failed, so only the moved
  // block completes plus everything the coroutine then parks again.
  EXPECT_TRUE(p.core(0).failed());
  EXPECT_GT(p.core(1).cycles_executed(), 0u);
  EXPECT_GE(done, 1);
}

// Regression: issue tags must be globally unique, not per-core. Here the
// survivor (core 1) has issued zero blocks when the parked block migrates
// to it, so with per-core counters the re-issue would reuse tag value 1 —
// exactly the tag the stale end event (still pending at the original
// 10us finish time) captured on core 0. That stale event must stay dead:
// one resume, at the migrated finish time, not two.
TEST(CoreFault, StaleEndEventAfterMigrationNeverDoubleResumes) {
  Platform p(PlatformConfig::homogeneous(2));
  int done = 0;
  spawn(p.kernel(), compute_items(p, 0, 1, 4000, done));  // ends at 10us
  p.kernel().schedule_at(microseconds(5), [&] {
    p.core(0).fail();
    EXPECT_EQ(p.core(0).migrate_parked(p.core(1)), 1u);
  });
  p.kernel().run();

  EXPECT_EQ(done, 1);  // exactly one resume, from the re-issued end event
  EXPECT_EQ(p.kernel().now(), microseconds(15));  // 5us crash + 10us rerun
  EXPECT_EQ(p.core(1).cycles_executed(), 4000u);
}

// Regression: migrating to a *faster* survivor finishes the block — and
// destroys the coroutine frame holding the awaitable — before the failed
// core's original end event ever fires. That stale event must validate
// without dereferencing the freed awaitable (the ASan job enforces this)
// and then do nothing.
TEST(CoreFault, StaleEndEventOutlivingMigratedFrameIsDefused) {
  Platform p(PlatformConfig::homogeneous(2));
  p.core(1).set_frequency(ghz(4));  // 10x the 400MHz default
  int done = 0;
  spawn(p.kernel(), compute_items(p, 0, 1, 40'000, done));  // 100us on core 0
  p.kernel().schedule_at(microseconds(5), [&] {
    p.core(0).fail();
    p.core(0).migrate_parked(p.core(1));
  });
  p.kernel().run();

  EXPECT_EQ(done, 1);  // resumed once, at 15us, on the fast survivor
  // The stale 100us end event still drains — as a no-op.
  EXPECT_EQ(p.kernel().now(), microseconds(100));
}

TEST(CoreFault, StallDelaysWithoutLosingWork) {
  auto run = [](bool with_stall) {
    Platform p(PlatformConfig::homogeneous(1));
    int done = 0;
    spawn(p.kernel(), compute_items(p, 0, 4, 4000, done));
    if (with_stall)
      p.kernel().schedule_at(microseconds(12),
                             [&] { p.core(0).stall(microseconds(7)); });
    p.kernel().run();
    EXPECT_EQ(done, 4);
    return p.kernel().now();
  };
  const TimePs clean = run(false);
  const TimePs stalled = run(true);
  EXPECT_EQ(stalled, clean + microseconds(7));
}

TEST(DmaFault, ZeroLengthProgrammingIsRejectedNotSilentlyCompleted) {
  Platform p(PlatformConfig::homogeneous(2));
  int completions = 0;
  EXPECT_FALSE(p.dma().start(p.shared_base(), p.shared_base() + 4096, 0,
                             [&] { ++completions; }));
  EXPECT_EQ(p.dma().error(), sim::DmaEngine::kErrZeroLength);
  EXPECT_EQ(p.dma().read_reg(sim::DmaEngine::kRegError),
            sim::DmaEngine::kErrZeroLength);
  EXPECT_FALSE(p.dma().busy());
  p.kernel().run();
  EXPECT_EQ(completions, 0);  // no sneaky no-op completion event
}

TEST(DmaFault, OverlappingRangesAreRejected) {
  Platform p(PlatformConfig::homogeneous(2));
  int completions = 0;
  EXPECT_FALSE(p.dma().start(p.shared_base(), p.shared_base() + 64, 256,
                             [&] { ++completions; }));
  EXPECT_EQ(p.dma().error(), sim::DmaEngine::kErrOverlap);
  p.kernel().run();
  EXPECT_EQ(completions, 0);

  // A valid transfer afterwards clears the error latch and completes.
  EXPECT_TRUE(p.dma().start(p.shared_base(), p.shared_base() + 4096, 256,
                            [&] { ++completions; }));
  EXPECT_EQ(p.dma().error(), sim::DmaEngine::kErrNone);
  p.kernel().run();
  EXPECT_EQ(completions, 1);
}

TEST(DmaFault, AbortCancelsCompletionAndLatchesError) {
  Platform p(PlatformConfig::homogeneous(2));
  EXPECT_FALSE(p.dma().abort());  // idle: nothing to abort

  int completions = 0;
  EXPECT_TRUE(p.dma().start(p.shared_base(), p.shared_base() + 4096, 4096,
                            [&] { ++completions; }));
  EXPECT_TRUE(p.dma().busy());
  EXPECT_TRUE(p.dma().abort());
  EXPECT_FALSE(p.dma().busy());
  EXPECT_EQ(p.dma().error(), sim::DmaEngine::kErrAborted);
  EXPECT_EQ(p.dma().abort_count(), 1u);
  p.kernel().run();
  EXPECT_EQ(completions, 0);  // the stale completion event is a no-op
}

TEST(IrqFault, InjectedDropsLoseRaises) {
  Platform p(PlatformConfig::homogeneous(1));
  int delivered = 0;
  const std::size_t line = sim::kIrqSoftBase;
  p.irqc().set_handler(line, [&](std::size_t l) {
    ++delivered;
    p.irqc().ack(l);
  });
  p.irqc().inject_drops(line, 2);
  for (int i = 0; i < 3; ++i) p.irqc().raise(line);
  p.kernel().run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(p.irqc().dropped_count(), 2u);
  EXPECT_EQ(p.irqc().read_reg(sim::InterruptController::kRegDropCount), 2u);
}

TEST(IcnFault, DegradeScalesOccupancyAndDropsDouble) {
  Platform p(PlatformConfig::homogeneous(2));
  auto& icn = p.interconnect();
  const auto [s0, e0] = icn.reserve_transfer(sim::CoreId{0}, sim::CoreId{1}, 1024, 0);
  const DurationPs nominal = e0 - s0;

  icn.set_degrade(2.0);
  const auto [s1, e1] = icn.reserve_transfer(sim::CoreId{0}, sim::CoreId{1}, 1024, e0);
  EXPECT_EQ(e1 - s1, 2 * nominal);

  icn.set_degrade(1.0);  // back to the exact nominal value
  const auto [s2, e2] = icn.reserve_transfer(sim::CoreId{0}, sim::CoreId{1}, 1024, e1);
  EXPECT_EQ(e2 - s2, nominal);

  icn.inject_drops(1);
  const auto [s3, e3] = icn.reserve_transfer(sim::CoreId{0}, sim::CoreId{1}, 1024, e2);
  EXPECT_EQ(e3 - s3, 2 * nominal);  // drop + retransmit
  EXPECT_EQ(icn.packets_dropped(), 1u);
  const auto [s4, e4] = icn.reserve_transfer(sim::CoreId{0}, sim::CoreId{1}, 1024, e3);
  EXPECT_EQ(e4 - s4, nominal);  // the armed drop was consumed

  // The planner's view is deliberately un-faulted.
  icn.set_degrade(4.0);
  EXPECT_EQ(icn.nominal_latency(sim::CoreId{0}, sim::CoreId{1}, 1024),
            static_cast<DurationPs>(nominal));
}

TEST(IcnFault, MeshPerLinkDegradeSlowsOnlyRoutesUsingThatLink) {
  PlatformConfig cfg = PlatformConfig::homogeneous(4);
  cfg.interconnect = PlatformConfig::Icn::kMesh;
  cfg.mesh.width = 2;
  cfg.mesh.height = 2;
  Platform p(std::move(cfg));
  auto* mesh = &p.interconnect();
  const std::size_t links = sim::link_count(p.config());
  ASSERT_GT(links, 0u);
  EXPECT_THROW(mesh->set_link_degrade(links, 2.0), std::out_of_range);

  // Degrading every link one at a time must slow at least one route.
  const auto [s0, e0] = mesh->reserve_transfer(sim::CoreId{0}, sim::CoreId{3}, 512, 0);
  const DurationPs nominal = e0 - s0;
  bool slowed = false;
  TimePs t = e0;
  for (std::size_t l = 0; l < links && !slowed; ++l) {
    mesh->set_link_degrade(l, 3.0);
    const auto [s1, e1] = mesh->reserve_transfer(sim::CoreId{0}, sim::CoreId{3}, 512, t);
    t = e1;
    slowed = (e1 - s1) > nominal;
    mesh->set_link_degrade(l, 1.0);
  }
  EXPECT_TRUE(slowed);
}

TEST(Watchdog, ExpiresWithoutKickAndKickDefers) {
  Platform p(PlatformConfig::homogeneous(1));
  WatchdogPeripheral wdt(p.kernel(), p.tracer(), p.irqc(),
                         sim::kIrqSoftBase + 1);
  std::vector<TimePs> expiries;
  p.irqc().set_handler(sim::kIrqSoftBase + 1, [&](std::size_t l) {
    expiries.push_back(p.kernel().now());
    p.irqc().ack(l);
    if (expiries.size() >= 2) wdt.disarm();
  });
  wdt.arm(microseconds(10));
  p.kernel().schedule_at(microseconds(5), [&] { wdt.kick(); });
  p.kernel().run();

  // Kick at 5us deferred the first expiry to 15us; auto re-arm produced a
  // second at 25us; the handler then disarmed, so the run drained.
  ASSERT_EQ(expiries.size(), 2u);
  EXPECT_EQ(expiries[0], microseconds(15));
  EXPECT_EQ(expiries[1], microseconds(25));
  EXPECT_EQ(wdt.expired_count(), 2u);
  EXPECT_EQ(wdt.kick_count(), 1u);
}

TEST(Watchdog, RegisterInterfaceArmsKicksAndCounts) {
  Platform p(PlatformConfig::homogeneous(1));
  WatchdogPeripheral wdt(p.kernel(), p.tracer(), p.irqc(),
                         sim::kIrqSoftBase + 2);
  int fired = 0;
  p.irqc().set_handler(sim::kIrqSoftBase + 2, [&](std::size_t l) {
    ++fired;
    p.irqc().ack(l);
    wdt.write_reg(WatchdogPeripheral::kRegCtrl, 0);  // disarm via register
  });
  wdt.write_reg(WatchdogPeripheral::kRegTimeoutPs, microseconds(8));
  wdt.write_reg(WatchdogPeripheral::kRegCtrl, 1);  // arm
  EXPECT_TRUE(wdt.armed());
  p.kernel().schedule_at(microseconds(4), [&] {
    wdt.write_reg(WatchdogPeripheral::kRegKick, 1);
  });
  p.kernel().run();
  EXPECT_EQ(fired, 1);
  // The disarmed auto-re-arm event drains as a generation-guarded no-op,
  // so the kernel ends at its (stale) timestamp without a second IRQ.
  EXPECT_GE(p.kernel().now(), microseconds(12));
  EXPECT_EQ(wdt.read_reg(WatchdogPeripheral::kRegExpiredCount), 1u);
  EXPECT_EQ(wdt.read_reg(WatchdogPeripheral::kRegKickCount), 1u);
  EXPECT_THROW(wdt.arm(0), std::invalid_argument);
}

Process sem_holder(Platform& p, std::size_t cell, bool& held_ok) {
  held_ok = p.hwsem().try_acquire(cell, p.core(0).id());
  co_await p.core(0).compute(40'000, "critical");  // crashed mid-section
  if (p.hwsem().held(cell) && p.hwsem().holder(cell) == p.core(0).id())
    p.hwsem().release(cell, p.core(0).id());
}

Process sem_waiter(Platform& p, std::size_t cell, bool& acquired) {
  for (int attempt = 0; attempt < 2000 && !acquired; ++attempt) {
    acquired = p.hwsem().try_acquire(cell, p.core(1).id());
    if (!acquired) co_await sim::delay(p.kernel(), nanoseconds(500));
  }
  if (acquired) p.hwsem().release(cell, p.core(1).id());
}

// The livelock scenario the recovery supervisor exists for: the semaphore
// holder's core dies inside the critical section. Nobody but the watchdog
// can ever release that cell; the waiter must eventually get it.
TEST(HwsemRecovery, HolderDiesWatchdogForceReleaseBreaksLivelock) {
  Platform p(PlatformConfig::homogeneous(2));
  WatchdogPeripheral wdt(p.kernel(), p.tracer(), p.irqc(),
                         sim::InterruptController::kNumLines - 1);
  SupervisorConfig scfg;
  scfg.policy = RecoveryPolicy::kWatchdogRestart;
  scfg.watchdog_timeout = microseconds(20);
  FaultTimeline timeline;
  RecoverySupervisor sup(p, wdt, scfg, &timeline);
  sup.start();

  bool held_ok = false;
  bool acquired = false;
  spawn(p.kernel(), sem_holder(p, 0, held_ok));
  spawn(p.kernel(), sem_waiter(p, 0, acquired));
  p.kernel().schedule_at(microseconds(3), [&] { p.core(0).fail(); });
  p.kernel().run(10'000'000);

  EXPECT_TRUE(held_ok);
  EXPECT_TRUE(acquired);  // no livelock: the waiter got the cell
  EXPECT_EQ(sup.sem_releases(), 1u);
  EXPECT_GE(sup.restarts(), 1u);
  EXPECT_FALSE(p.hwsem().held(0));
  EXPECT_EQ(count_prefix(timeline, "recovery.sem_release"), 1u);
  // The restarted holder's conditional release must not have thrown (the
  // run completing at all asserts that), and the run terminated: the
  // supervisor eventually disarmed the watchdog.
  EXPECT_FALSE(wdt.armed());
}

struct FingerprintRun {
  std::uint64_t fingerprint;
  std::uint64_t trace_events;
  std::uint64_t kernel_events;
  TimePs makespan;

  bool operator==(const FingerprintRun&) const = default;
};

FingerprintRun run_workload(const std::string& name, std::uint64_t seed,
                            bool with_empty_plan) {
  PlatformConfig cfg = PlatformConfig::homogeneous(4);
  cfg.trace_enabled = true;
  Platform p(std::move(cfg));
  vpdebug::ExecutionRecorder rec(p);
  std::unique_ptr<FaultInjector> injector;
  if (with_empty_plan) {
    injector = std::make_unique<FaultInjector>(p, FaultPlan{});
    injector->arm();
  }
  EXPECT_TRUE(perf::spawn_workload(name, p, seed, /*scale=*/2));
  p.kernel().run();
  if (injector) {
    EXPECT_EQ(injector->armed_events(), 0u);
  }
  return {rec.fingerprint(), rec.events(), p.kernel().events_executed(),
          p.kernel().now()};
}

// The rw::perf contract, restated for rw::fault: arming an empty plan
// must be bit-identical to not having the fault subsystem at all, across
// the whole workload corpus.
TEST(FaultIdentity, ArmedEmptyPlanIsBitIdenticalAcrossWorkloadCorpus) {
  for (const auto& w : perf::workload_registry()) {
    for (std::uint64_t seed : {5ULL, 77ULL}) {
      const FingerprintRun off = run_workload(w.name, seed, false);
      const FingerprintRun on = run_workload(w.name, seed, true);
      EXPECT_EQ(off, on) << w.name << " seed=" << seed;
    }
  }
}

Process busy_loop(Platform& p, int items) {
  for (int i = 0; i < items; ++i)
    co_await p.core(0).compute(4000, "bg");
}

TEST(Injector, ExplicitPlanAppliesAtTheScheduledPicosecond) {
  Platform p(PlatformConfig::homogeneous(2));
  FaultPlan plan;
  plan.crash_core(microseconds(5), 1)
      .stall_core(microseconds(7), 0, microseconds(2))
      .drop_packets(microseconds(8), 3);
  FaultInjector injector(p, plan);
  injector.arm();
  EXPECT_EQ(injector.armed_events(), 3u);

  spawn(p.kernel(), busy_loop(p, 10));  // keeps live events past 8us
  p.kernel().run();

  EXPECT_EQ(injector.applied(), 3u);
  EXPECT_TRUE(p.core(1).failed());
  EXPECT_EQ(p.core(1).last_fail_time(), microseconds(5));
  EXPECT_EQ(p.core(0).stall_count(), 1u);
  ASSERT_EQ(injector.timeline().size(), 3u);
  EXPECT_EQ(injector.timeline().records()[0].time, microseconds(5));
  EXPECT_EQ(injector.timeline().records()[0].what, "core_crash");
  EXPECT_EQ(count_prefix(injector.timeline(), "core_"), 2u);
}

TEST(Injector, LinkDegradeTargetsMeshLinksAndFallsBackOnABus) {
  PlatformConfig mesh_cfg = PlatformConfig::homogeneous(4);
  mesh_cfg.interconnect = PlatformConfig::Icn::kMesh;
  mesh_cfg.mesh.width = 2;
  mesh_cfg.mesh.height = 2;
  // Plans see every mesh link and none on the bus.
  EXPECT_EQ(degradable_links(PlatformConfig::homogeneous(4)), 0u);
  EXPECT_EQ(degradable_links(mesh_cfg), 16u);
  for (const bool mesh : {false, true}) {
    Platform p(mesh ? mesh_cfg : PlatformConfig::homogeneous(4));
    FaultInjector injector(p, FaultPlan{}.degrade_link(microseconds(1), 21,
                                                       2.5));
    injector.arm();
    spawn(p.kernel(), busy_loop(p, 2));
    p.kernel().run();
    ASSERT_EQ(injector.timeline().size(), 1u);
    // On the mesh link 21 % 16 is slowed alone; on the bus, its one link
    // is the whole fabric.
    EXPECT_EQ(injector.timeline().records()[0].note,
              mesh ? "" : "fabric_wide_fallback");
    EXPECT_EQ(p.interconnect().degrade_factor(), mesh ? 1.0 : 2.5);
  }
}

TEST(Injector, TimelineJsonIsByteStable) {
  auto once = [] {
    Platform p(PlatformConfig::homogeneous(2));
    FaultInjector injector(p, FaultPlan{}
                                  .crash_core(microseconds(3), 0)
                                  .spurious_irq(microseconds(4), 9));
    injector.arm();
    spawn(p.kernel(), busy_loop(p, 6));
    p.kernel().run();
    return timeline_json(injector.timeline());
  };
  const std::string a = once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, once());
}

}  // namespace
}  // namespace rw::fault
