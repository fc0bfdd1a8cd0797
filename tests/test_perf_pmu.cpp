#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "perf/pmu.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"
#include "sim/process.hpp"
#include "vpdebug/replay.hpp"

namespace rw::perf {
namespace {

sim::Process computer(sim::Platform& p, std::size_t core, Cycles c,
                      const char* label, int reps) {
  for (int i = 0; i < reps; ++i) {
    co_await p.core(core).compute(c, label);
    co_await sim::delay(p.kernel(), microseconds(1));
  }
}

std::unique_ptr<sim::Platform> make_platform(std::size_t cores = 2) {
  auto cfg = sim::PlatformConfig::homogeneous(cores, mhz(400));
  cfg.trace_enabled = true;
  return std::make_unique<sim::Platform>(std::move(cfg));
}

TEST(PmuTest, CountsComputeBlocksAndBusyCycles) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  sim::spawn(plat->kernel(), computer(*plat, 0, 10'000, "fir", 3));
  sim::spawn(plat->kernel(), computer(*plat, 1, 4'000, "iir", 2));
  plat->kernel().run();

  EXPECT_EQ(pmu.core(0).busy_cycles, 30'000u);
  EXPECT_EQ(pmu.core(0).compute_blocks, 3u);
  EXPECT_EQ(pmu.core(0).reservations, 3u);
  EXPECT_EQ(pmu.core(0).busy_ps, cycles_to_ps(30'000, mhz(400)));
  EXPECT_EQ(pmu.core(1).busy_cycles, 8'000u);
  EXPECT_EQ(pmu.core(1).compute_blocks, 2u);
  // The PMU's busy time must agree with the core's own account.
  EXPECT_EQ(pmu.core(0).busy_ps, plat->core(0).busy_time());
}

TEST(PmuTest, SplitsLocalAndSharedAccesses) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  auto& mem = plat->memory();
  const sim::CoreId c0{0};

  mem.write_u64(c0, plat->scratchpad_base(c0), 1);       // local write
  (void)mem.read_u64(c0, plat->scratchpad_base(c0));     // local read
  std::array<std::uint8_t, 4> word{2, 0, 0, 0};
  mem.write_block(c0, plat->shared_base(), word);        // shared write
  mem.read_block(c0, plat->shared_base(), word);         // shared read
  // Another core's scratchpad is remote: counted as shared.
  (void)mem.read_u64(c0, plat->scratchpad_base(sim::CoreId{1}));

  const CoreCounters& c = pmu.core(0);
  EXPECT_EQ(c.mem_reads, 3u);
  EXPECT_EQ(c.mem_writes, 2u);
  EXPECT_EQ(c.local_accesses, 2u);
  EXPECT_EQ(c.shared_accesses, 3u);
  EXPECT_EQ(c.bytes_read, 8u + 4u + 8u);
  EXPECT_EQ(c.bytes_written, 8u + 4u);
  // Stalls: scratchpad latency 1 cycle x2, shared latency 12 x2, remote
  // scratchpad 1 — per the default platform config.
  EXPECT_EQ(c.stall_cycles, 1u + 1u + 12u + 12u + 1u);
}

TEST(PmuTest, PokePeekAreNotCounted) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  plat->memory().poke(plat->shared_base(), buf);
  plat->memory().peek(plat->shared_base(), buf);
  EXPECT_EQ(pmu.core(0).mem_reads, 0u);
  EXPECT_EQ(pmu.core(0).mem_writes, 0u);
  EXPECT_EQ(pmu.unattributed().mem_reads, 0u);
}

TEST(PmuTest, DmaCountsBytesAndUnattributedAccesses) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->dma().start(plat->shared_base(), plat->shared_base() + 4096, 256);
  plat->kernel().run();

  EXPECT_EQ(pmu.dma().transfers, 1u);
  EXPECT_EQ(pmu.dma().bytes, 256u);
  EXPECT_GT(pmu.dma().busy_ps, 0u);
  // The engine's block copy runs without a core identity.
  EXPECT_EQ(pmu.unattributed().mem_reads, 1u);
  EXPECT_EQ(pmu.unattributed().mem_writes, 1u);
  EXPECT_EQ(pmu.unattributed().bytes_read, 256u);
  for (std::size_t i = 0; i < plat->core_count(); ++i)
    EXPECT_EQ(pmu.core(i).mem_reads, 0u);
}

TEST(PmuTest, SharedBusTransfersFillIcnCounters) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  auto& icn = plat->interconnect();
  const auto [s1, f1] =
      icn.reserve_transfer(sim::CoreId{0}, sim::CoreId{1}, 1024, 0);
  // Immediately queue a second transfer: it must wait behind the first.
  const auto [s2, f2] =
      icn.reserve_transfer(sim::CoreId{1}, sim::CoreId{0}, 1024, 0);

  EXPECT_EQ(pmu.icn().transfers, 2u);
  EXPECT_EQ(pmu.icn().bytes, 2048u);
  EXPECT_EQ(pmu.icn().wait_ps, s2 - static_cast<TimePs>(0));
  EXPECT_EQ(pmu.icn().busy_ps, (f1 - s1) + (f2 - s2));
  ASSERT_EQ(pmu.icn().link_busy_ps.size(), 1u);  // the one shared bus
  EXPECT_EQ(pmu.icn().link_busy_ps[0], pmu.icn().busy_ps);
  EXPECT_EQ(pmu.icn().hops, 0u);
}

TEST(PmuTest, MeshTransfersCountHopsAndLinks) {
  auto cfg = sim::PlatformConfig::homogeneous(4, mhz(400));
  cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
  cfg.mesh.width = 2;
  cfg.mesh.height = 2;
  sim::Platform plat(std::move(cfg));
  Pmu pmu(plat.core_count());
  plat.attach(pmu);

  // Corner to corner on a 2x2 mesh: 2 hops (XY route).
  plat.interconnect().reserve_transfer(sim::CoreId{0}, sim::CoreId{3}, 64,
                                       0);
  EXPECT_EQ(pmu.icn().transfers, 1u);
  EXPECT_EQ(pmu.icn().hops, 2u);
  std::size_t used_links = 0;
  for (const auto b : pmu.icn().link_busy_ps)
    if (b > 0) ++used_links;
  EXPECT_EQ(used_links, 2u);

  // Local delivery (src == dst) is free and hopless.
  plat.interconnect().reserve_transfer(sim::CoreId{1}, sim::CoreId{1}, 64,
                                       0);
  EXPECT_EQ(pmu.icn().transfers, 2u);
  EXPECT_EQ(pmu.icn().hops, 2u);
}

TEST(PmuTest, FreqChangesCounted) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->core(0).set_frequency(mhz(800));
  plat->core(0).set_frequency(mhz(800));  // no-op: same frequency
  plat->core(0).set_frequency(mhz(400));
  EXPECT_EQ(pmu.core(0).freq_changes, 2u);
  EXPECT_EQ(pmu.core(1).freq_changes, 0u);
}

TEST(PmuTest, DetachStopsCounting) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->core(0).reserve(1000);
  plat->detach(pmu);
  plat->core(0).reserve(1000);
  EXPECT_EQ(pmu.core(0).busy_cycles, 1000u);
  EXPECT_EQ(pmu.core(0).reservations, 1u);
}

// Counts reservations and memory accesses next to the PMU.
struct SecondCounter final : sim::Observer {
  void on_core_reserve(sim::CoreId, Cycles, TimePs, TimePs, HertzT) override {
    ++reserves;
  }
  void on_mem_access(const sim::MemAccess&) override { ++accesses; }
  std::uint64_t reserves = 0;
  std::uint64_t accesses = 0;
};

// The PMU is one observer among several: a second counting observer sees
// the same run, and detaching either one leaves the other counting.
TEST(PmuTest, CoexistsWithAnotherObserver) {
  auto plat = make_platform(4);
  SecondCounter other;
  plat->attach(other);
  auto session = std::make_unique<PerfSession>(*plat);
  ASSERT_TRUE(spawn_workload("shared_hammer", *plat, /*seed=*/5, 2));
  plat->kernel().run();
  const CoreCounters t = session->report().totals();
  EXPECT_GT(other.accesses, 0u);
  EXPECT_EQ(t.mem_reads + t.mem_writes, other.accesses);
  EXPECT_EQ(t.reservations, other.reserves);

  const std::uint64_t pmu_core0 = session->pmu().core(0).reservations;
  session->detach();
  plat->core(0).reserve(1000);
  EXPECT_EQ(other.reserves, t.reservations + 1);
  EXPECT_EQ(session->pmu().core(0).reservations, pmu_core0);
  session.reset();

  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->detach(other);
  plat->core(0).reserve(1000);
  plat->memory().write_u64(sim::CoreId{0}, plat->shared_base(), 1);
  EXPECT_EQ(pmu.core(0).reservations, 1u);
  EXPECT_EQ(pmu.core(0).mem_writes, 1u);
  EXPECT_EQ(other.reserves, t.reservations + 1);
  EXPECT_EQ(other.accesses, t.mem_reads + t.mem_writes);
}

TEST(PmuTest, SnapshotAndResetRoundTrip) {
  auto plat = make_platform();
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  plat->core(0).reserve(1000);
  const PmuSnapshot s = pmu.snapshot(plat->kernel().now());
  EXPECT_EQ(s.cores[0].busy_cycles, 1000u);
  plat->core(0).reserve(500);
  EXPECT_EQ(s.cores[0].busy_cycles, 1000u);  // a copy, not a view
  EXPECT_EQ(pmu.snapshot(0).cores[0], pmu.core(0));
  EXPECT_EQ(pmu.core(0).busy_cycles, 1500u);
}

// The tentpole's zero-overhead criterion: attaching the observation stack
// (PMU counters + non-intrusive sampler + epoch windows) leaves the
// simulation bit-identical — same trace fingerprint, same makespan.
TEST(PmuTest, AttachedObserversLeaveSimulationBitIdentical) {
  auto scenario_makespan = [](bool observed, std::uint64_t& fingerprint) {
    auto plat = make_platform(4);
    std::unique_ptr<PerfSession> session;
    if (observed) session = std::make_unique<PerfSession>(*plat);
    vpdebug::ExecutionRecorder rec(*plat);
    spawn_workload("forkjoin", *plat, /*seed=*/42, /*scale=*/2);
    plat->kernel().run();
    fingerprint = rec.fingerprint();
    return plat->kernel().now();
  };

  std::uint64_t fp_base = 0, fp_observed = 0;
  const TimePs t_base = scenario_makespan(false, fp_base);
  const TimePs t_observed = scenario_makespan(true, fp_observed);
  EXPECT_EQ(t_base, t_observed);
  EXPECT_EQ(fp_base, fp_observed);
}

// Same property through the harness lens: RunMetrics of an instrumented
// run with everything detached again equals the baseline's, sim_equal-wise.
TEST(PmuTest, DetachedSessionMetricsSimEqualBaseline) {
  auto run_once = [](bool observe) {
    auto plat = make_platform(4);
    RunMetrics m;
    if (observe) {
      PerfSession session(*plat);
      spawn_workload("pipeline", *plat, 7, 2);
      plat->kernel().run();
      session.detach();
      m.makespan = plat->kernel().now();
    } else {
      spawn_workload("pipeline", *plat, 7, 2);
      plat->kernel().run();
      m.makespan = plat->kernel().now();
    }
    m.mean_core_utilization = 0.0;
    return m;
  };
  EXPECT_TRUE(run_once(true).sim_equal(run_once(false)));
}

}  // namespace
}  // namespace rw::perf
