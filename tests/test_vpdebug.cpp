#include <gtest/gtest.h>

#include <utility>

#include "sim/process.hpp"
#include "vpdebug/debugger.hpp"
#include "vpdebug/race.hpp"
#include "vpdebug/replay.hpp"
#include "vpdebug/script.hpp"
#include "vpdebug/victim.hpp"

namespace rw::vpdebug {
namespace {

sim::PlatformConfig two_cores() {
  auto cfg = sim::PlatformConfig::homogeneous(2, mhz(400));
  cfg.trace_enabled = true;
  return cfg;
}

sim::Process touch_shared(sim::Platform& p, std::size_t core,
                          std::uint64_t value) {
  co_await p.core(core).compute(1'000, "warmup");
  p.memory().write_u64(sim::CoreId{static_cast<std::uint32_t>(core)},
                       p.shared_base(), value);
}

TEST(Debugger, MemoryWatchpointSuspendsSystem) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  dbg.watch_memory(p.shared_base(), 8);
  sim::spawn(p.kernel(), touch_shared(p, 0, 42));
  const auto stop = dbg.resume();
  EXPECT_EQ(stop.kind, StopKind::kWatchpointMem);
  EXPECT_NE(stop.detail.find("wrote"), std::string::npos);
  // The write already landed; the whole system is frozen afterwards.
  EXPECT_EQ(dbg.read_mem_u64(p.shared_base()), 42u);
}

TEST(Debugger, ReadWatchpointsAreSeparate) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  dbg.watch_memory(p.shared_base(), 8, /*on_write=*/false,
                   /*on_read=*/true);
  sim::spawn(p.kernel(), touch_shared(p, 0, 7));  // write only
  const auto stop = dbg.resume();
  EXPECT_EQ(stop.kind, StopKind::kFinished);  // no read happened
}

TEST(Debugger, TaskBreakpoint) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  dbg.break_on_task("warmup");
  sim::spawn(p.kernel(), touch_shared(p, 1, 9));
  const auto stop = dbg.resume();
  EXPECT_EQ(stop.kind, StopKind::kBreakpointTask);
  EXPECT_NE(stop.detail.find("warmup"), std::string::npos);
  // Resume to completion.
  EXPECT_EQ(dbg.resume().kind, StopKind::kFinished);
}

TEST(Debugger, SignalWatchpointOnIrqLine) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  dbg.watch_signal("irq0");
  p.timer().start_oneshot(microseconds(10));
  const auto stop = dbg.resume();
  EXPECT_EQ(stop.kind, StopKind::kWatchpointSignal);
  EXPECT_EQ(stop.detail, "signal irq0: 0 -> 1");
}

TEST(Debugger, InspectionWhileSuspended) {
  sim::Platform p(two_cores());
  p.core(0).set_reg(1, 0xabc);
  Debugger dbg(p);
  EXPECT_EQ(dbg.core_register(0, 1), 0xabcu);
  EXPECT_EQ(dbg.peripheral_register(
                "irqc", sim::InterruptController::kRegPending),
            0u);
  EXPECT_THROW((void)dbg.peripheral_register("nope", 0), std::invalid_argument);
  const std::string snap = dbg.snapshot();
  EXPECT_NE(snap.find("core0"), std::string::npos);
  EXPECT_NE(snap.find("timer"), std::string::npos);
}

TEST(Debugger, AssertionStopsRun) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  dbg.add_assertion("shared stays < 42", [&] {
    return dbg.read_mem_u64(p.shared_base()) < 42;
  });
  sim::spawn(p.kernel(), touch_shared(p, 0, 42));
  const auto stop = dbg.resume();
  EXPECT_EQ(stop.kind, StopKind::kAssertion);
  EXPECT_NE(stop.detail.find("shared stays"), std::string::npos);
}

TEST(Debugger, RunUntilAdvancesTime) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  p.timer().start_periodic(microseconds(10));
  const auto stop = dbg.run_until(microseconds(35));
  EXPECT_EQ(stop.kind, StopKind::kTimeReached);
  EXPECT_EQ(p.timer().fire_count(), 3u);
}

// ------------------------------------------------------------------ races

TEST(RacyCounter, LosesUpdatesWithoutLock) {
  sim::Platform p(two_cores());
  RacyCounterConfig cfg;
  cfg.increments_per_core = 100;
  cfg.seed = 3;
  const auto r = run_racy_counter(p, cfg);
  EXPECT_TRUE(r.bug_manifested());
  EXPECT_GT(r.lost_updates(), 0u);
}

TEST(RacyCounter, SemaphoreFixesTheBug) {
  sim::Platform p(two_cores());
  RacyCounterConfig cfg;
  cfg.increments_per_core = 100;
  cfg.seed = 3;
  cfg.use_semaphore = true;
  const auto r = run_racy_counter(p, cfg);
  EXPECT_FALSE(r.bug_manifested());
  EXPECT_EQ(r.observed, 200u);
}

TEST(RaceDetector, FlagsUnsynchronizedConflicts) {
  sim::Platform p(two_cores());
  RaceDetector det(p, p.shared_base(), 8, microseconds(2));
  RacyCounterConfig cfg;
  cfg.increments_per_core = 50;
  cfg.seed = 5;
  run_racy_counter(p, cfg);
  EXPECT_FALSE(det.races().empty());
  EXPECT_GT(det.accesses_observed(), 100u);
  const auto s = det.races()[0].to_string();
  EXPECT_NE(s.find("race on"), std::string::npos);
}

TEST(RaceDetector, QuietOnLockedVersion) {
  sim::Platform p(two_cores());
  RaceDetector det(p, p.shared_base(), 8, microseconds(2));
  RacyCounterConfig cfg;
  cfg.increments_per_core = 50;
  cfg.seed = 5;
  cfg.use_semaphore = true;
  run_racy_counter(p, cfg);
  EXPECT_TRUE(det.races().empty());
}

// A detector that is gone observes nothing: the platform's next shared
// access must not reach it.
TEST(RaceDetector, DestroyedDetectorIsDetached) {
  sim::Platform p(two_cores());
  {
    RaceDetector det(p, p.shared_base(), 8, microseconds(2));
    p.memory().write_u64(sim::CoreId{0}, p.shared_base(), 1);
    EXPECT_EQ(det.accesses_observed(), 1u);
  }
  RacyCounterConfig cfg;
  cfg.increments_per_core = 20;
  cfg.seed = 5;
  const auto r = run_racy_counter(p, cfg);
  EXPECT_GT(r.observed, 0u);
}

// ------------------------------------------------------------- Heisenbug

TEST(Heisenbug, IntrusiveProbePerturbsManifestation) {
  // The central Sec. VII claim: intrusive debugging changes behaviour.
  // Across seeds, the lost-update pattern with a single-core stall must
  // differ from the undisturbed run (often hiding the bug entirely).
  int differs = 0;
  const int kSeeds = 12;
  for (int seed = 0; seed < kSeeds; ++seed) {
    RacyCounterConfig plain;
    plain.increments_per_core = 40;
    plain.seed = static_cast<std::uint64_t>(seed);
    sim::Platform p1(two_cores());
    const auto clean = run_racy_counter(p1, plain);

    RacyCounterConfig probed = plain;
    probed.probe_stall_ps = nanoseconds(700);
    sim::Platform p2(two_cores());
    const auto noisy = run_racy_counter(p2, probed);

    if (clean.observed != noisy.observed) ++differs;
  }
  EXPECT_GT(differs, kSeeds / 2);
}

TEST(Heisenbug, NonIntrusiveReproducesExactly) {
  // Whereas the virtual platform replays the same defect bit-for-bit.
  RacyCounterConfig cfg;
  cfg.increments_per_core = 40;
  cfg.seed = 11;
  sim::Platform p1(two_cores());
  const auto a = run_racy_counter(p1, cfg);
  sim::Platform p2(two_cores());
  const auto b = run_racy_counter(p2, cfg);
  EXPECT_EQ(a.observed, b.observed);
  EXPECT_EQ(a.lost_updates(), b.lost_updates());
}

// ----------------------------------------------------------------- replay

TEST(Replay, FingerprintsMatchAcrossRuns) {
  RacyCounterConfig cfg;
  cfg.increments_per_core = 30;
  cfg.seed = 21;
  const auto check = check_replay(two_cores(), [&](sim::Platform& p) {
    run_racy_counter(p, cfg);
  });
  EXPECT_TRUE(check.deterministic());
  EXPECT_NE(check.first, 0u);
}

TEST(Replay, DifferentSeedsDifferentFingerprints) {
  auto fp = [](std::uint64_t seed) {
    sim::Platform p(two_cores());
    ExecutionRecorder rec(p);
    RacyCounterConfig cfg;
    cfg.increments_per_core = 30;
    cfg.seed = seed;
    run_racy_counter(p, cfg);
    return rec.fingerprint();
  };
  EXPECT_NE(fp(1), fp(2));
}

// A Debugger detaches only itself: a recorder attached before it records
// the same run whether or not a debugger came and went.
TEST(Replay, DestroyedDebuggerLeavesRecorderAttached) {
  RacyCounterConfig cfg;
  cfg.increments_per_core = 30;
  cfg.seed = 21;
  auto record = [&](bool with_debugger) {
    sim::Platform p(two_cores());
    ExecutionRecorder rec(p);
    if (with_debugger) {
      Debugger dbg(p);
    }
    run_racy_counter(p, cfg);
    return std::pair{rec.events(), rec.fingerprint()};
  };
  const auto plain = record(false);
  EXPECT_GT(plain.first, 0u);
  EXPECT_EQ(record(true), plain);
}

// ------------------------------------------------------------- masked irq

TEST(MaskedIrq, VirtualPlatformShowsPendingLine) {
  sim::Platform p(two_cores());
  const auto r = run_masked_irq_bug(p);
  EXPECT_FALSE(r.handler_ran);     // the bug: handler never runs
  EXPECT_TRUE(r.irq_line_high);    // but the VP shows the wire pending
  EXPECT_TRUE(p.irqc().is_pending(sim::kIrqTimer));
  EXPECT_TRUE(p.irqc().is_masked(sim::kIrqTimer));
}

// ----------------------------------------------------------------- script

TEST(Script, WatchpointAndInspection) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  ScriptEngine script(dbg);
  sim::spawn(p.kernel(), touch_shared(p, 0, 99));

  const std::string prog = R"(
    # watch the shared counter
    echo == session start ==
    watch-mem 0x80000000 8 w
    run
    print-mem 0x80000000
    snapshot
  )";
  const auto st = script.execute_script(prog);
  ASSERT_TRUE(st.ok()) << st.error().to_string();
  const std::string& t = script.transcript();
  EXPECT_NE(t.find("== session start =="), std::string::npos);
  EXPECT_NE(t.find("mem-watchpoint"), std::string::npos);
  EXPECT_NE(t.find("mem[0x80000000] = 99"), std::string::npos);
  EXPECT_NE(t.find("system suspended"), std::string::npos);
}

TEST(Script, SystemLevelAssertionWithoutCodeChange) {
  // The Sec. VII pitch: assert a system-level fault condition purely from
  // the script — the application code is untouched.
  sim::Platform p(two_cores());
  Debugger dbg(p);
  ScriptEngine script(dbg);
  sim::spawn(p.kernel(), touch_shared(p, 0, 99));  // app writes 99
  ASSERT_TRUE(script.execute_line("assert-mem-le 0x80000000 15 ctr small")
                  .ok());
  ASSERT_TRUE(script.execute_line("run").ok());
  EXPECT_EQ(script.assertion_failures(), 1u);
  EXPECT_NE(script.transcript().find("assertion failed: ctr small"),
            std::string::npos);
}

TEST(Script, RejectsUnknownAndMalformedCommands) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  ScriptEngine script(dbg);
  EXPECT_FALSE(script.execute_line("frobnicate").ok());
  EXPECT_FALSE(script.execute_line("watch-mem").ok());
  EXPECT_FALSE(script.execute_line("watch-mem zzz 8").ok());
  EXPECT_FALSE(script.execute_line("print-reg 0").ok());
  EXPECT_TRUE(script.execute_line("# just a comment").ok());
  EXPECT_TRUE(script.execute_line("").ok());
}

TEST(Script, SignalWatchViaScript) {
  sim::Platform p(two_cores());
  Debugger dbg(p);
  ScriptEngine script(dbg);
  p.timer().start_oneshot(microseconds(5));
  ASSERT_TRUE(script.execute_script("watch-sig irq0\nrun").ok());
  EXPECT_NE(script.transcript().find("signal-watchpoint"),
            std::string::npos);
}

}  // namespace
}  // namespace rw::vpdebug
