#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "sched/dvfs.hpp"
#include "sched/hybrid.hpp"
#include "sched/spacealloc.hpp"

namespace rw::sched {
namespace {

ParallelApp make_app(std::string name, Cycles work, double serial,
                     std::size_t min_c = 1, std::size_t max_c = SIZE_MAX) {
  ParallelApp a;
  a.name = std::move(name);
  a.total_work = work;
  a.serial_fraction = serial;
  a.min_cores = min_c;
  a.max_cores = max_c;
  return a;
}

// ------------------------------------------------------------ gang alloc

TEST(Gang, SingleAppGetsAllCoresItCanUse) {
  GangConfig cfg;
  cfg.total_cores = 8;
  GangResult r = run_gang_schedule(cfg, {{make_app("a", 1'000'000, 0.0), 0}});
  ASSERT_EQ(r.apps.size(), 1u);
  EXPECT_EQ(r.apps[0].cores, 8u);
  EXPECT_GT(r.apps[0].finish, r.apps[0].start);
}

TEST(Gang, MaxCoresCapsGrant) {
  GangConfig cfg;
  cfg.total_cores = 8;
  GangResult r = run_gang_schedule(
      cfg, {{make_app("a", 1'000'000, 0.0, 1, 3), 0}});
  EXPECT_EQ(r.apps[0].cores, 3u);
}

TEST(Gang, FifoQueuesWhenPoolExhausted) {
  GangConfig cfg;
  cfg.total_cores = 4;
  auto app = make_app("x", 4'000'000, 0.0, 4, 4);
  GangResult r = run_gang_schedule(cfg, {{app, 0}, {app, 0}});
  // Second gang must wait for the first to release.
  EXPECT_GE(r.apps[1].start, r.apps[0].finish);
}

TEST(Gang, MoreCoresShortenMakespanNearLinearly) {
  // E1's headline shape: homogeneous space-sharing scales near-linearly.
  auto run_with = [](std::size_t cores) {
    GangConfig cfg;
    cfg.total_cores = cores;
    cfg.arbitration_latency = 0;
    std::vector<GangRequest> reqs;
    for (int i = 0; i < 16; ++i)
      reqs.push_back({make_app(strformat("a%d", i), 8'000'000, 0.0,
                               1, 1),
                      0});
    return run_gang_schedule(cfg, std::move(reqs)).makespan();
  };
  const auto m1 = run_with(1);
  const auto m4 = run_with(4);
  const auto m16 = run_with(16);
  EXPECT_NEAR(static_cast<double>(m1) / static_cast<double>(m4), 4.0, 0.2);
  EXPECT_NEAR(static_cast<double>(m1) / static_cast<double>(m16), 16.0, 0.8);
}

TEST(Gang, CentralizedArbiterCausesWaiting) {
  std::vector<GangRequest> reqs;
  for (int i = 0; i < 64; ++i)
    reqs.push_back({make_app(strformat("a%d", i), 1'000, 0.0, 1, 1), 0});

  GangConfig central;
  central.total_cores = 64;
  central.strategy = ArbitrationStrategy::kCentralized;
  central.arbitration_latency = microseconds(5);

  GangConfig dist = central;
  dist.strategy = ArbitrationStrategy::kDistributed;
  dist.arbiters = 16;

  const auto rc = run_gang_schedule(central, reqs);
  const auto rd = run_gang_schedule(dist, reqs);
  EXPECT_GT(rc.arbitration_wait, rd.arbitration_wait);
  EXPECT_GT(rc.makespan(), rd.makespan());
}

TEST(Gang, SerialBoostHelpsAmdahlLimitedApps) {
  GangConfig plain;
  plain.total_cores = 16;
  GangConfig boosted = plain;
  boosted.serial_boost = 4.0;
  const auto app = make_app("amdahl", 16'000'000, 0.3);
  const auto rp = run_gang_schedule(plain, {{app, 0}});
  const auto rb = run_gang_schedule(boosted, {{app, 0}});
  EXPECT_LT(rb.apps[0].finish, rp.apps[0].finish);
}

TEST(Gang, RejectsOversizedMinCores) {
  GangConfig cfg;
  cfg.total_cores = 2;
  EXPECT_THROW(
      run_gang_schedule(cfg, {{make_app("big", 1000, 0.0, 4, 4), 0}}),
      std::invalid_argument);
}

TEST(Gang, ThroughputAndResponseMetrics) {
  GangConfig cfg;
  cfg.total_cores = 4;
  GangResult r = run_gang_schedule(
      cfg, {{make_app("a", 400'000, 0.0), 0},
            {make_app("b", 400'000, 0.0), microseconds(10)}});
  EXPECT_EQ(r.operations, 4u);  // 2 allocs + 2 releases
  EXPECT_GT(r.metrics.mean_core_utilization, 0.0);
  EXPECT_LE(r.metrics.mean_core_utilization, 1.0 + 1e-9);
  const RunMetrics m = r.to_metrics();
  EXPECT_EQ(m.extra_or("operations"), 4.0);
  EXPECT_EQ(m.makespan, r.makespan());
}

// ------------------------------------------------------------------ dvfs

TEST(Dvfs, LadderSteps) {
  const auto l = FrequencyLadder::typical();
  EXPECT_EQ(l.lowest(), mhz(200));
  EXPECT_EQ(l.highest(), mhz(2000));
  EXPECT_EQ(l.step_up(mhz(400)), mhz(600));
  EXPECT_EQ(l.step_down(mhz(400)), mhz(200));
  EXPECT_EQ(l.step_up(mhz(2000)), mhz(2000));
  EXPECT_EQ(l.step_down(mhz(200)), mhz(200));
}

TEST(Dvfs, GovernorPicksLowestFeasible) {
  TaskSet ts;
  ts.add("t", 1'000'000, milliseconds(4));  // needs >= 250 MHz roughly
  const auto f = governor_pick_frequency(ts, FrequencyLadder::typical());
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, mhz(400));  // 200 MHz gives 5ms > 4ms deadline
}

TEST(Dvfs, GovernorRejectsInfeasible) {
  TaskSet ts;
  ts.add("t", 3'000'000'000ULL, milliseconds(1));
  EXPECT_FALSE(
      governor_pick_frequency(ts, FrequencyLadder::typical()).has_value());
}

TEST(Dvfs, ReactiveGovernorHysteresis) {
  ReactiveGovernor gov(FrequencyLadder::typical(), 0.8, 0.3);
  EXPECT_EQ(gov.current(), mhz(200));
  EXPECT_EQ(gov.observe(0.95), mhz(400));  // busy: step up
  EXPECT_EQ(gov.observe(0.95), mhz(600));
  EXPECT_EQ(gov.observe(0.5), mhz(600));   // in band: hold
  EXPECT_EQ(gov.observe(0.1), mhz(400));   // idle: step down
  EXPECT_EQ(gov.transitions(), 3u);
}

TEST(Dvfs, ReactiveGovernorValidatesConfig) {
  EXPECT_THROW(ReactiveGovernor(FrequencyLadder{{}}, 0.8, 0.3),
               std::invalid_argument);
  EXPECT_THROW(ReactiveGovernor(FrequencyLadder::typical(), 0.3, 0.8),
               std::invalid_argument);
}

TEST(Dvfs, EnergyModelQuadratic) {
  EXPECT_DOUBLE_EQ(relative_energy_per_cycle(mhz(400), mhz(400)), 1.0);
  EXPECT_DOUBLE_EQ(relative_energy_per_cycle(mhz(800), mhz(400)), 4.0);
}

// ---------------------------------------------------------------- hybrid

TEST(Hybrid, AdmitsFeasibleRtSetPredictably) {
  HybridConfig cfg;
  cfg.time_shared_cores = 2;
  HybridScheduler sched(cfg);
  TaskSet ts;
  ts.add("ctrl", 100'000, milliseconds(4));
  const auto adm = sched.admit_rt(ts);
  EXPECT_TRUE(adm.admitted);
  EXPECT_EQ(adm.core, 0u);
  EXPECT_GE(adm.frequency, mhz(200));
}

TEST(Hybrid, SecondSetSpillsToSecondCore) {
  HybridConfig cfg;
  cfg.time_shared_cores = 2;
  HybridScheduler sched(cfg);
  TaskSet heavy;
  heavy.add("h", 7'000'000, milliseconds(4));  // ~1.75 GHz-ms per 4ms
  EXPECT_TRUE(sched.admit_rt(heavy).admitted);
  const auto second = sched.admit_rt(heavy);
  EXPECT_TRUE(second.admitted);
  EXPECT_EQ(second.core, 1u);
}

TEST(Hybrid, RejectsWhenAllCoresFull) {
  HybridConfig cfg;
  cfg.time_shared_cores = 1;
  HybridScheduler sched(cfg);
  TaskSet heavy;
  heavy.add("h", 7'500'000, milliseconds(4));
  EXPECT_TRUE(sched.admit_rt(heavy).admitted);
  const auto adm = sched.admit_rt(heavy);
  EXPECT_FALSE(adm.admitted);
  EXPECT_FALSE(adm.reason.empty());
}

TEST(Hybrid, AdmittedSetsRemainAnalyzable) {
  HybridScheduler sched(HybridConfig{});
  TaskSet a, b;
  a.add("a", 200'000, milliseconds(10));
  b.add("b", 300'000, milliseconds(15));
  sched.admit_rt(a);
  sched.admit_rt(b);
  for (std::size_t c = 0; c < sched.rt_cores().size(); ++c) {
    TaskSet merged = sched.rt_cores()[c];
    merged.frequency = sched.rt_frequencies()[c];
    EXPECT_TRUE(response_time_analysis(merged, 200).all_schedulable(merged));
  }
}

TEST(Hybrid, PoolRunsSingleApp) {
  HybridConfig cfg;
  cfg.pool_cores = 8;
  HybridScheduler sched(cfg);
  HybridResult r =
      sched.run_pool({{make_app("app", 8'000'000, 0.0), 0}});
  ASSERT_EQ(r.pool_apps.size(), 1u);
  EXPECT_GT(r.pool_apps[0].finish, 0u);
  // Alone in the pool: should hold ~all 8 cores during the parallel phase.
  EXPECT_NEAR(r.pool_apps[0].mean_cores, 8.0, 0.5);
}

TEST(Hybrid, EquipartitionSharesPool) {
  HybridConfig cfg;
  cfg.pool_cores = 8;
  HybridScheduler sched(cfg);
  const auto app = make_app("x", 16'000'000, 0.0);
  HybridResult r = sched.run_pool({{app, 0}, {app, 0}});
  // Two identical apps arriving together: equal shares, equal finishes.
  EXPECT_NEAR(r.pool_apps[0].mean_cores, r.pool_apps[1].mean_cores, 0.2);
  EXPECT_NEAR(static_cast<double>(r.pool_apps[0].finish),
              static_cast<double>(r.pool_apps[1].finish),
              static_cast<double>(r.pool_apps[0].finish) * 0.01);
}

TEST(Hybrid, ReactsToLateArrival) {
  HybridConfig cfg;
  cfg.pool_cores = 8;
  HybridScheduler sched(cfg);
  const auto big = make_app("big", 80'000'000, 0.0);
  const auto small = make_app("small", 4'000'000, 0.0);
  // Small app arrives mid-run of the big one; EQUI gives it half the pool
  // immediately, so its response is far better than FIFO would give.
  HybridResult r = sched.run_pool({{big, 0}, {small, milliseconds(10)}});
  const auto& s = r.pool_apps[1];
  EXPECT_LT(s.response(), milliseconds(10));  // finishes well before big
  EXPECT_GT(r.reallocations, 2u);
}

TEST(Hybrid, PoolNeverStarvesWhenOversubscribed) {
  HybridConfig cfg;
  cfg.pool_cores = 2;  // fewer cores than apps
  HybridScheduler sched(cfg);
  std::vector<HybridScheduler::GangArrival> arr;
  for (int i = 0; i < 6; ++i)
    arr.push_back({make_app(strformat("a%d", i), 1'000'000, 0.1), 0});
  HybridResult r = sched.run_pool(arr);
  for (const auto& a : r.pool_apps) EXPECT_GT(a.finish, 0u);
  EXPECT_LE(r.pool_utilization, 1.0 + 1e-9);
  EXPECT_GT(r.pool_utilization, 0.5);
}

TEST(Hybrid, SerialPhaseLimitsToOneCore) {
  HybridConfig cfg;
  cfg.pool_cores = 16;
  cfg.serial_boost = 1.0;
  HybridScheduler sched(cfg);
  // Fully serial app: mean cores ~1 even with 16 available.
  HybridResult r = sched.run_pool({{make_app("seq", 4'000'000, 1.0), 0}});
  EXPECT_NEAR(r.pool_apps[0].mean_cores, 1.0, 0.1);
}

// ------------------------------------- static-contract gang admission

TEST(Gang, StaticallyInfeasibleRequestIsRejectedNotQueued) {
  GangConfig cfg;
  cfg.total_cores = 4;
  const auto app = make_app("a", 1'000'000, 0.0);

  GangRequest hopeless{app, 0};
  hopeless.deadline = microseconds(10);
  hopeless.makespan_bound = microseconds(20);  // bound alone blows the budget
  GangRequest fine{app, 0};
  fine.deadline = milliseconds(50);
  fine.makespan_bound = microseconds(20);
  GangRequest uncontracted{app, 0};  // no contract: always admitted

  const GangResult r =
      run_gang_schedule(cfg, {hopeless, fine, uncontracted});
  ASSERT_EQ(r.apps.size(), 3u);
  EXPECT_FALSE(r.apps[0].admitted);
  EXPECT_EQ(r.apps[0].cores, 0u);
  EXPECT_EQ(r.apps[0].finish, 0u);
  EXPECT_TRUE(r.apps[1].admitted);
  EXPECT_GT(r.apps[1].finish, 0u);
  EXPECT_TRUE(r.apps[2].admitted);
  EXPECT_EQ(r.rejected_infeasible, 1u);
  EXPECT_EQ(r.to_metrics().extra_or("rejected_infeasible", 0.0), 1.0);
}

TEST(Hybrid, RejectsZeroCoreConfig) {
  HybridConfig cfg;
  cfg.time_shared_cores = 0;
  cfg.pool_cores = 0;
  EXPECT_THROW(HybridScheduler{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace rw::sched
