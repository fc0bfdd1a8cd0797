#include "common/strings.hpp"
#include "sched/uniproc.hpp"

#include <gtest/gtest.h>

#include "sched/analysis.hpp"

namespace rw::sched {
namespace {

TaskSet buttazzo_set() {
  TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("t1", 100'000, milliseconds(4));   // 1ms / 4ms
  ts.add("t2", 200'000, milliseconds(6));   // 2ms / 6ms
  ts.add("t3", 300'000, milliseconds(12));  // 3ms / 12ms
  return ts;
}

TEST(Uniproc, RmMeetsAllDeadlinesOnFeasibleSet) {
  const auto res = simulate_uniproc(buttazzo_set(), milliseconds(120),
                                    {Policy::kRateMonotonic});
  EXPECT_EQ(res.total_misses(), 0u);
  EXPECT_EQ(res.tasks[0].released, 30u);
  EXPECT_EQ(res.tasks[0].completed, 30u);
  EXPECT_EQ(res.tasks[1].released, 20u);
  EXPECT_EQ(res.tasks[2].released, 10u);
}

TEST(Uniproc, SimulatedWorstResponseMatchesAnalysis) {
  // Soundness cross-check: simulated worst response <= analytic bound,
  // and for the critical-instant release pattern (all at t=0) the first
  // job should hit the analytic value exactly.
  TaskSet ts = buttazzo_set();
  assign_rm_priorities(ts);
  const auto rta = response_time_analysis(ts);
  const auto res = simulate_uniproc(ts, milliseconds(120),
                                    {Policy::kFixedPriority});
  for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
    ASSERT_TRUE(rta.per_task[i].has_value());
    EXPECT_LE(res.tasks[i].worst_response, *rta.per_task[i]);
  }
  // t3's critical instant: exactly the analytic 10 ms.
  EXPECT_EQ(res.tasks[2].worst_response, milliseconds(10));
}

TEST(Uniproc, OverloadedSetMissesUnderRm) {
  TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("a", 300'000, milliseconds(4));
  ts.add("b", 300'000, milliseconds(6));  // U = 1.25
  const auto res =
      simulate_uniproc(ts, milliseconds(60), {Policy::kRateMonotonic});
  EXPECT_GT(res.total_misses(), 0u);
  // The lower-priority task absorbs the misses under RM.
  EXPECT_EQ(res.tasks[0].deadline_misses, 0u);
  EXPECT_GT(res.tasks[1].deadline_misses, 0u);
}

TEST(Uniproc, EdfSchedulesFullUtilization) {
  // U = 1.0 exactly: EDF schedules it, RM cannot.
  TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("a", 200'000, milliseconds(4));   // 0.5
  ts.add("b", 300'000, milliseconds(6));   // 0.5
  const auto edf = simulate_uniproc(ts, milliseconds(120), {Policy::kEdf});
  EXPECT_EQ(edf.total_misses(), 0u);
  const auto rm =
      simulate_uniproc(ts, milliseconds(120), {Policy::kRateMonotonic});
  EXPECT_GT(rm.total_misses(), 0u);
}

TEST(Uniproc, UtilizationMatchesLoad) {
  const auto res = simulate_uniproc(buttazzo_set(), milliseconds(120),
                                    {Policy::kRateMonotonic});
  // U = 0.25 + 1/3 + 0.25 = 0.8333
  EXPECT_NEAR(res.utilization(), 0.8333, 0.01);
}

TEST(Uniproc, ContextSwitchOverheadIncreasesResponse) {
  UniprocConfig no_ovh{Policy::kRateMonotonic, 0};
  UniprocConfig ovh{Policy::kRateMonotonic, 50'000};  // 0.5ms per switch
  const auto a = simulate_uniproc(buttazzo_set(), milliseconds(120), no_ovh);
  const auto b = simulate_uniproc(buttazzo_set(), milliseconds(120), ovh);
  EXPECT_GT(b.tasks[2].worst_response, a.tasks[2].worst_response);
  EXPECT_GT(b.busy_time, a.busy_time);
}

TEST(Uniproc, PreemptionsCounted) {
  const auto res = simulate_uniproc(buttazzo_set(), milliseconds(120),
                                    {Policy::kRateMonotonic});
  EXPECT_GT(res.preemptions, 0u);
  EXPECT_GT(res.context_switches, res.preemptions);
}

TEST(Uniproc, RoundRobinSharesFairly) {
  TaskSet ts;
  ts.frequency = mhz(100);
  // Two identical CPU-bound tasks.
  ts.add("a", 500'000, milliseconds(20));
  ts.add("b", 500'000, milliseconds(20));
  UniprocConfig cfg{Policy::kRoundRobin, 0, microseconds(500)};
  const auto res = simulate_uniproc(ts, milliseconds(100), cfg);
  EXPECT_EQ(res.tasks[0].completed, res.tasks[1].completed);
  // RR interleaves: mean responses within one quantum of each other.
  EXPECT_NEAR(res.tasks[0].mean_response, res.tasks[1].mean_response,
              static_cast<double>(microseconds(600)));
}

TEST(Uniproc, AcetHookInjectsOverruns) {
  TaskSet ts = buttazzo_set();
  // Every third job of t3 runs 4x its WCET.
  const AcetFn acet = [](const RtTask& t, std::uint64_t idx) {
    if (t.name == "t3" && idx % 3 == 0) return t.wcet * 4;
    return t.wcet;
  };
  const auto res = simulate_uniproc(ts, milliseconds(120),
                                    {Policy::kRateMonotonic}, acet);
  EXPECT_GT(res.total_misses(), 0u);
}

TEST(Uniproc, AcetBelowWcetAlsoWorks) {
  TaskSet ts = buttazzo_set();
  const AcetFn acet = [](const RtTask& t, std::uint64_t) {
    return t.wcet / 2;
  };
  const auto res = simulate_uniproc(ts, milliseconds(120),
                                    {Policy::kRateMonotonic}, acet);
  EXPECT_EQ(res.total_misses(), 0u);
  EXPECT_NEAR(res.utilization(), 0.8333 / 2, 0.01);
}

TEST(Uniproc, DeterministicAcrossRuns) {
  const auto a = simulate_uniproc(buttazzo_set(), milliseconds(120),
                                  {Policy::kEdf});
  const auto b = simulate_uniproc(buttazzo_set(), milliseconds(120),
                                  {Policy::kEdf});
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.busy_time, b.busy_time);
  for (std::size_t i = 0; i < a.tasks.size(); ++i)
    EXPECT_EQ(a.tasks[i].worst_response, b.tasks[i].worst_response);
}

TEST(Uniproc, PolicyNames) {
  EXPECT_STREQ(policy_name(Policy::kEdf), "EDF");
  EXPECT_STREQ(policy_name(Policy::kRoundRobin), "RR");
}

// Property sweep: any feasible (RTA-passing) set must simulate clean under
// fixed-priority scheduling; this is the soundness contract between
// analysis.cpp and uniproc.cpp.
class RtaSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RtaSoundness, AnalysisAcceptedImpliesNoMisses) {
  const int seed = GetParam();
  // Deterministic pseudo-random task set from the seed.
  TaskSet ts;
  ts.frequency = mhz(200);
  std::uint64_t x = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
  auto rnd = [&x](std::uint64_t lo, std::uint64_t hi) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return lo + x % (hi - lo + 1);
  };
  const int n = static_cast<int>(rnd(2, 5));
  for (int i = 0; i < n; ++i) {
    const DurationPs period = milliseconds(rnd(2, 40));
    // Keep per-task utilization small enough that many sets pass RTA.
    const Cycles wcet = static_cast<Cycles>(
        static_cast<double>(period) / 1e12 * mhz(200) * 0.15);
    ts.add(strformat("t%d", i), std::max<Cycles>(wcet, 1), period);
  }
  assign_rm_priorities(ts);
  if (!response_time_analysis(ts).all_schedulable(ts)) GTEST_SKIP();
  const auto res = simulate_uniproc(ts, hyperperiod(ts),
                                    {Policy::kFixedPriority});
  EXPECT_EQ(res.total_misses(), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RtaSoundness, ::testing::Range(0, 25));

}  // namespace
}  // namespace rw::sched
