#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "sched/partitioned.hpp"
#include "sched/uniproc.hpp"

namespace rw::sched {
namespace {

RtTask make_task(const std::string& name, Cycles wcet, DurationPs period) {
  RtTask t;
  t.name = name;
  t.wcet = wcet;
  t.period = period;
  return t;
}

/// n identical tasks of utilization u each (at 100 MHz).
std::vector<RtTask> uniform_tasks(int n, double u,
                                  DurationPs period = milliseconds(10)) {
  std::vector<RtTask> out;
  for (int i = 0; i < n; ++i) {
    const auto wcet = static_cast<Cycles>(
        u * static_cast<double>(period) / 1e12 * mhz(100));
    out.push_back(make_task(strformat("t%d", i), wcet, period));
  }
  return out;
}

TEST(Partitioned, TrivialFit) {
  const auto r = partition_tasks(uniform_tasks(4, 0.2), 1, mhz(100),
                                 PackingHeuristic::kFirstFit);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cores_used, 1u);
  EXPECT_NEAR(r.max_core_utilization, 0.8, 0.01);
}

TEST(Partitioned, SpillsAcrossCores) {
  // 6 tasks of U=0.4: 2.4 total -> needs >= 3 cores under EDF.
  const auto tasks = uniform_tasks(6, 0.4);
  EXPECT_FALSE(partition_tasks(tasks, 2, mhz(100),
                               PackingHeuristic::kFirstFit)
                   .feasible);
  const auto r3 = partition_tasks(tasks, 3, mhz(100),
                                  PackingHeuristic::kFirstFit);
  EXPECT_TRUE(r3.feasible);
  EXPECT_EQ(r3.cores_used, 3u);
}

TEST(Partitioned, UnplacedTasksReported) {
  const auto tasks = uniform_tasks(5, 0.6);
  const auto r = partition_tasks(tasks, 2, mhz(100),
                                 PackingHeuristic::kFirstFit);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.unplaced.size(), 3u);  // one 0.6 task per core, three left
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const bool placed = r.task_to_core[i] >= 0;
    const bool listed =
        std::find(r.unplaced.begin(), r.unplaced.end(), i) !=
        r.unplaced.end();
    EXPECT_NE(placed, listed);
  }
}

TEST(Partitioned, WorstFitBalances) {
  const auto tasks = uniform_tasks(4, 0.3);
  const auto wf = partition_tasks(tasks, 4, mhz(100),
                                  PackingHeuristic::kWorstFit);
  ASSERT_TRUE(wf.feasible);
  // Worst-fit spreads: every core holds exactly one task.
  EXPECT_EQ(wf.cores_used, 4u);
  EXPECT_NEAR(wf.max_core_utilization, 0.3, 0.01);
  // First-fit packs: everything on core 0 (0.9 <= 1 for EDF... 4*0.3=1.2
  // so 3 on core 0, 1 on core 1).
  const auto ff = partition_tasks(tasks, 4, mhz(100),
                                  PackingHeuristic::kFirstFit);
  ASSERT_TRUE(ff.feasible);
  EXPECT_LE(ff.cores_used, 2u);
}

TEST(Partitioned, FirstFitDecreasingHandlesMixedSizes) {
  // Classic bin-packing trap: big items last defeats plain first-fit.
  std::vector<RtTask> tasks;
  for (int i = 0; i < 3; ++i)
    tasks.push_back(make_task("small" + std::to_string(i),
                              350'000, milliseconds(10)));  // U=0.35
  for (int i = 0; i < 3; ++i)
    tasks.push_back(make_task("big" + std::to_string(i),
                              650'000, milliseconds(10)));  // U=0.65
  // FFD pairs each big with a small: 3 cores suffice.
  const auto ffd = partition_tasks(tasks, 3, mhz(100),
                                   PackingHeuristic::kFirstFitDecreasing);
  EXPECT_TRUE(ffd.feasible);
  // Plain first-fit packs smalls together (1.05 > 1 -> 2+1 split), then
  // bigs each need their own core: needs 4.
  const auto ff = partition_tasks(tasks, 3, mhz(100),
                                  PackingHeuristic::kFirstFit);
  EXPECT_FALSE(ff.feasible);
}

TEST(Partitioned, RtaTestStricterThanEdf) {
  // U=0.9 on one core: fine for EDF, infeasible for fixed-priority RM/DM
  // with these periods (two tasks, U > RM bound, critical instant fails).
  std::vector<RtTask> tasks{make_task("a", 500'000, milliseconds(10)),
                            make_task("b", 800'000, milliseconds(20))};
  EXPECT_TRUE(partition_tasks(tasks, 1, mhz(100),
                              PackingHeuristic::kFirstFit,
                              PerCoreTest::kEdfDensity)
                  .feasible);
  // Under RTA the set is actually schedulable (RTA is exact, not the
  // utilization bound), so verify agreement with simulation instead.
  const auto rta = partition_tasks(tasks, 1, mhz(100),
                                   PackingHeuristic::kFirstFit,
                                   PerCoreTest::kResponseTime);
  if (rta.feasible) {
    TaskSet ts = rta.per_core[0];
    assign_dm_priorities(ts);
    const auto sim = simulate_uniproc(ts, milliseconds(200),
                                      {Policy::kFixedPriority});
    EXPECT_EQ(sim.total_misses(), 0u);
  }
}

TEST(Partitioned, PlacedCoresSimulateClean) {
  // Soundness: every core the partitioner fills must simulate without
  // misses under EDF.
  const auto tasks = uniform_tasks(7, 0.28, milliseconds(8));
  const auto r = partition_tasks(tasks, 3, mhz(100),
                                 PackingHeuristic::kBestFit);
  ASSERT_TRUE(r.feasible);
  for (const auto& core_set : r.per_core) {
    if (core_set.tasks.empty()) continue;
    const auto sim =
        simulate_uniproc(core_set, milliseconds(160), {Policy::kEdf});
    EXPECT_EQ(sim.total_misses(), 0u);
  }
}

TEST(Partitioned, MinCoresNeeded) {
  const auto tasks = uniform_tasks(6, 0.4);
  const auto n = min_cores_needed(tasks, mhz(100),
                                  PackingHeuristic::kFirstFitDecreasing);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 3u);

  // An impossible single task (U > 1) can never be placed.
  const auto impossible = min_cores_needed(
      {make_task("x", 20'000'000, milliseconds(10))}, mhz(100),
      PackingHeuristic::kFirstFit, 8);
  EXPECT_FALSE(impossible.has_value());
}

}  // namespace
}  // namespace rw::sched
