#include <gtest/gtest.h>

#include <memory>

#include "perf/governor.hpp"
#include "perf/metrics.hpp"
#include "perf/pmu.hpp"
#include "perf/profiler.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"
#include "sim/process.hpp"

namespace rw::perf {
namespace {

std::unique_ptr<sim::Platform> make_platform(std::size_t cores = 2) {
  auto cfg = sim::PlatformConfig::homogeneous(cores, mhz(400));
  cfg.trace_enabled = true;
  return std::make_unique<sim::Platform>(std::move(cfg));
}

sim::Process one_block(sim::Platform& p, std::size_t core, Cycles c,
                       const char* label) {
  co_await p.core(core).compute(c, label);
}

sim::Process two_phase(sim::Platform& p) {
  // 100 us of "alpha" then 300 us of "beta" at 400 MHz (2.5 ns/cycle).
  co_await p.core(0).compute(40'000, "alpha");
  co_await p.core(0).compute(120'000, "beta");
}

TEST(ProfilerTest, SamplesMatchKnownPhaseDurations) {
  auto plat = make_platform(1);
  ProfilerConfig cfg;
  cfg.period = microseconds(1);
  SamplingProfiler prof(*plat, cfg);
  prof.start();
  sim::spawn(plat->kernel(), two_phase(*plat));
  plat->kernel().run();

  // Makespan 400 us, one sample per us per core. The tick at t=0 samples
  // pre-reservation state; ticks stop with the last live event at 400 us.
  const auto p = prof.profile();
  EXPECT_EQ(p.total_samples, prof.ticks());
  EXPECT_EQ(p.busy_samples + p.idle_samples, p.total_samples);
  auto samples_for = [&p](std::string_view label) {
    std::uint64_t n = 0;
    for (const auto& e : p.entries)
      if (e.label == label) n += e.samples;
    return n;
  };
  const std::uint64_t alpha = samples_for("alpha");
  const std::uint64_t beta = samples_for("beta");
  EXPECT_GT(alpha, 0u);
  EXPECT_GT(beta, 0u);
  // 1:3 duration split should be visible within a couple of samples.
  EXPECT_NEAR(static_cast<double>(beta) / static_cast<double>(alpha), 3.0,
              0.2);
}

TEST(ProfilerTest, IdleCoresAccrueIdleSamples) {
  auto plat = make_platform(2);
  ProfilerConfig cfg;
  cfg.period = microseconds(1);
  SamplingProfiler prof(*plat, cfg);
  prof.start();
  // Core 0 busy 100 us; core 1 never touched.
  sim::spawn(plat->kernel(), one_block(*plat, 0, 40'000, "only"));
  plat->kernel().run();

  const auto p = prof.profile();
  EXPECT_GT(p.idle_samples, 0u);
  for (const auto& e : p.entries) EXPECT_EQ(e.core, 0u);
}

TEST(ProfilerTest, DaemonTicksDoNotKeepKernelAlive) {
  auto plat = make_platform(1);
  ProfilerConfig cfg;
  cfg.period = microseconds(1);
  SamplingProfiler prof(*plat, cfg);
  prof.start();
  sim::spawn(plat->kernel(), one_block(*plat, 0, 400, "tiny"));  // 1 us
  plat->kernel().run();
  // Without daemon events this would never return; with them the clock
  // stops at the last live event.
  EXPECT_EQ(plat->kernel().now(), microseconds(1));
  EXPECT_LE(prof.ticks(), 2u);
}

TEST(ProfilerTest, NonIntrusiveSamplingPreservesMakespan) {
  auto run = [](Cycles cost, DurationPs period) {
    auto plat = make_platform(4);
    ProfilerConfig cfg;
    cfg.period = period;
    cfg.cost_cycles = cost;
    SamplingProfiler prof(*plat, cfg);
    prof.start();
    spawn_workload("forkjoin", *plat, 3, 2);
    plat->kernel().run();
    return plat->kernel().now();
  };
  const TimePs baseline = [] {
    auto plat = make_platform(4);
    spawn_workload("forkjoin", *plat, 3, 2);
    plat->kernel().run();
    return plat->kernel().now();
  }();

  EXPECT_EQ(run(0, microseconds(2)), baseline);
  // The modelled on-target agent steals cycles: the run must stretch, and
  // a faster sampling rate must stretch it more.
  const TimePs slow = run(100, microseconds(20));
  const TimePs fast = run(100, microseconds(2));
  EXPECT_GT(slow, baseline);
  EXPECT_GT(fast, slow);
}

TEST(ProfilerTest, AttributionAccuracyHighAtFinePeriod) {
  auto run = [](DurationPs period) {
    auto plat = make_platform(4);
    ProfilerConfig cfg;
    cfg.period = period;
    SamplingProfiler prof(*plat, cfg);
    prof.start();
    spawn_workload("pipeline", *plat, 5, 2);
    plat->kernel().run();
    return attribution_accuracy(prof.profile(), plat->tracer().events(), 4);
  };
  const double fine = run(microseconds(1));
  EXPECT_GT(fine, 0.9);
  EXPECT_LE(fine, 1.0);
  // Sparser sampling cannot attribute better than dense sampling (allow a
  // hair of slack: bucketing ties can flip individual samples).
  EXPECT_LE(run(microseconds(50)), fine + 0.05);
}

TEST(ProfilerTest, AccuracyEdgeCases) {
  SamplingProfiler::Profile empty;
  EXPECT_EQ(attribution_accuracy(empty, {}, 2), 1.0);
  SamplingProfiler::Profile some;
  some.entries.push_back({0, "x", 5});
  some.busy_samples = 5;
  some.total_samples = 5;
  EXPECT_EQ(attribution_accuracy(some, {}, 2), 0.0);
}

TEST(EpochTest, EpochsTileTheRunAndSumToTotals) {
  auto plat = make_platform(2);
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  EpochCollector collector(*plat, pmu, microseconds(50));
  collector.start();
  sim::spawn(plat->kernel(), one_block(*plat, 0, 48'000, "a"));  // 120 us
  sim::spawn(plat->kernel(), one_block(*plat, 1, 20'000, "b"));  // 50 us
  plat->kernel().run();
  collector.finish();
  collector.finish();  // idempotent

  const auto& es = collector.epochs();
  ASSERT_GE(es.size(), 3u);
  TimePs cursor = 0;
  Cycles busy_sum = 0;
  for (const auto& e : es) {
    EXPECT_EQ(e.start, cursor);
    cursor = e.end;
    for (const auto& c : e.cores) busy_sum += c.busy_cycles;
  }
  EXPECT_EQ(cursor, plat->kernel().now());
  EXPECT_EQ(busy_sum, 48'000u + 20'000u);
  // First epoch: both cores active. Third: only core 0's tail remains.
  EXPECT_GT(es[0].mean_utilization(), 0.9);
  EXPECT_EQ(es[2].cores[1].busy_cycles, 0u);
}

TEST(GovernorTest, BoostsBusyCoreAndIdlesQuietCore) {
  auto plat = make_platform(2);
  Pmu pmu(plat->core_count());
  plat->attach(pmu);
  GovernorConfig gcfg;
  gcfg.window = microseconds(10);
  PmuGovernor gov(*plat, pmu, gcfg);
  gov.start();

  // Saturate core 0 with *sequential* window-sized chunks: each chunk is
  // reserved only when the previous one retires, so the PMU busy-time
  // deltas land in the windows where the work actually runs (spawning all
  // blocks up front would book every cycle into the first window and the
  // governor would read the rest of the run as idle). Core 1 stays quiet.
  sim::spawn(plat->kernel(), [](sim::Platform& p) -> sim::Process {
    for (int i = 0; i < 30; ++i) co_await p.core(0).compute(4'000, "hot");
  }(*plat));
  plat->kernel().run();

  EXPECT_GT(gov.transitions(), 0u);
  EXPECT_GT(gov.windows_observed(), 0u);
  // The governor starts every core at the ladder's lowest rung; the
  // saturated core must have climbed, the idle one must not.
  const HertzT lowest = gcfg.ladder.levels.front();
  EXPECT_GT(plat->core(0).frequency(), lowest);
  EXPECT_EQ(plat->core(1).frequency(), lowest);
  // The PMU saw each boost decision as a freq-change event.
  EXPECT_GT(pmu.core(0).freq_changes, 0u);
}

TEST(SessionTest, ReportAggregatesAllPipelineStages) {
  auto plat = make_platform(4);
  PerfConfig cfg;
  cfg.profiler.period = microseconds(5);
  cfg.epoch_width = microseconds(25);
  PerfSession session(*plat, cfg);
  spawn_workload("pipeline", *plat, 11, 2);
  plat->kernel().run();
  const PerfReport r = session.report();

  EXPECT_EQ(r.makespan, plat->kernel().now());
  EXPECT_EQ(r.num_cores, 4u);
  EXPECT_GT(r.totals().busy_cycles, 0u);
  EXPECT_GT(r.mean_utilization(), 0.0);
  EXPECT_GT(r.profiler_ticks, 0u);
  EXPECT_EQ(r.profiler_period, microseconds(5));
  EXPECT_GT(r.profile.busy_samples, 0u);
  ASSERT_FALSE(r.epochs.empty());
  EXPECT_EQ(r.epochs.back().end, r.makespan);

  RunMetrics m;
  r.to_extras(m);
  EXPECT_EQ(m.extra_or("pmu.busy_cycles"),
            static_cast<double>(r.totals().busy_cycles));
  EXPECT_GT(m.extra_or("pmu.samples"), 0.0);
  EXPECT_EQ(m.extra_or("pmu.epochs"),
            static_cast<double>(r.epochs.size()));
}

}  // namespace
}  // namespace rw::perf
