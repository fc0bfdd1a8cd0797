#include "sched/analysis.hpp"

#include <gtest/gtest.h>

namespace rw::sched {
namespace {

TaskSet light_harmonic_set() {
  // A light harmonic RM set: U = 0.1 + 0.1 + 0.1 = 0.3.
  TaskSet ts;
  ts.frequency = mhz(100);  // 10 ns per cycle
  ts.add("t1", 100'000, milliseconds(10));  // C=1ms, T=10ms, U=0.1
  ts.add("t2", 200'000, milliseconds(20));  // C=2ms, T=20ms, U=0.1
  ts.add("t3", 400'000, milliseconds(40));  // C=4ms, T=40ms, U=0.1
  return ts;
}

TEST(Analysis, UtilizationComputation) {
  const TaskSet ts = light_harmonic_set();
  EXPECT_NEAR(ts.total_utilization(), 0.3, 1e-9);
}

TEST(Analysis, RmPriorityAssignment) {
  TaskSet ts;
  ts.add("slow", 10, milliseconds(50));
  ts.add("fast", 10, milliseconds(5));
  ts.add("mid", 10, milliseconds(20));
  assign_rm_priorities(ts);
  EXPECT_GT(ts.tasks[0].fixed_priority, ts.tasks[2].fixed_priority);
  EXPECT_GT(ts.tasks[2].fixed_priority, ts.tasks[1].fixed_priority);
}

TEST(Analysis, DmPriorityUsesDeadline) {
  TaskSet ts;
  ts.add("a", 10, milliseconds(50), milliseconds(4));
  ts.add("b", 10, milliseconds(5));  // implicit deadline 5ms
  assign_dm_priorities(ts);
  EXPECT_LT(ts.tasks[0].fixed_priority, ts.tasks[1].fixed_priority);
}

TEST(Analysis, ResponseTimeAnalysisExactExample) {
  // Textbook example (Buttazzo): C1=1,T1=4; C2=2,T2=6; C3=3,T3=12 (ms).
  TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("t1", 100'000, milliseconds(4));
  ts.add("t2", 200'000, milliseconds(6));
  ts.add("t3", 300'000, milliseconds(12));
  assign_rm_priorities(ts);
  const auto rta = response_time_analysis(ts);
  ASSERT_TRUE(rta.per_task[0].has_value());
  ASSERT_TRUE(rta.per_task[1].has_value());
  ASSERT_TRUE(rta.per_task[2].has_value());
  EXPECT_EQ(*rta.per_task[0], milliseconds(1));
  EXPECT_EQ(*rta.per_task[1], milliseconds(3));
  // R3 = 3 + interference: classic answer is 10 ms.
  EXPECT_EQ(*rta.per_task[2], milliseconds(10));
  EXPECT_TRUE(rta.all_schedulable(ts));
}

TEST(Analysis, ResponseTimeDetectsUnschedulable) {
  TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("t1", 300'000, milliseconds(4));   // 3ms every 4ms
  ts.add("t2", 200'000, milliseconds(6));   // 2ms every 6ms: U > 1
  assign_rm_priorities(ts);
  const auto rta = response_time_analysis(ts);
  EXPECT_TRUE(rta.per_task[0].has_value());
  EXPECT_FALSE(rta.per_task[1].has_value());
  EXPECT_FALSE(rta.all_schedulable(ts));
}

TEST(Analysis, SwitchOverheadCanBreakFeasibility) {
  TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("t1", 190'000, milliseconds(4));
  ts.add("t2", 190'000, milliseconds(4));
  assign_rm_priorities(ts);
  EXPECT_TRUE(response_time_analysis(ts, 0).all_schedulable(ts));
  // 2*100k cycle switches add 2ms per job: now infeasible.
  EXPECT_FALSE(response_time_analysis(ts, 100'000).all_schedulable(ts));
}

TEST(Analysis, EdfUtilizationBoundary) {
  TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("a", 500'000, milliseconds(10));  // U=0.5
  ts.add("b", 500'000, milliseconds(10));  // U=0.5 -> exactly 1.0
  EXPECT_TRUE(edf_utilization_test(ts));
  ts.add("c", 1'000, milliseconds(10));
  EXPECT_FALSE(edf_utilization_test(ts));
}

TEST(Analysis, EdfBeatsRmOnHighUtilization) {
  // U = 0.97 set: passes both EDF tests.
  TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("a", 485'000, milliseconds(10));
  ts.add("b", 970'000, milliseconds(20));
  EXPECT_TRUE(edf_utilization_test(ts));
  EXPECT_TRUE(edf_demand_test(ts));
}

TEST(Analysis, EdfDemandTestConstrainedDeadlines) {
  TaskSet ts;
  ts.frequency = mhz(100);
  // C=2ms, T=10ms, D=3ms and C=2ms, T=10ms, D=4ms: h(3)=2<=3, h(4)=4<=4 ok.
  ts.add("a", 200'000, milliseconds(10), milliseconds(3));
  ts.add("b", 200'000, milliseconds(10), milliseconds(4));
  EXPECT_TRUE(edf_demand_test(ts));
  // Tighten: both D=3ms -> h(3) = 4 > 3: infeasible.
  TaskSet bad;
  bad.frequency = mhz(100);
  bad.add("a", 200'000, milliseconds(10), milliseconds(3));
  bad.add("b", 200'000, milliseconds(10), milliseconds(3));
  EXPECT_FALSE(edf_demand_test(bad));
}

TEST(Analysis, Hyperperiod) {
  TaskSet ts;
  ts.add("a", 1, 4);
  ts.add("b", 1, 6);
  ts.add("c", 1, 10);
  EXPECT_EQ(hyperperiod(ts), 60u);
}

TEST(Analysis, AmdahlSpeedupShape) {
  ParallelApp app;
  app.total_work = 1'000'000;
  app.serial_fraction = 0.1;
  EXPECT_NEAR(app.speedup(1), 1.0, 1e-9);
  EXPECT_LT(app.speedup(16), 16.0);      // sublinear
  EXPECT_NEAR(app.speedup(1'000'000), 10.0, 0.1);  // asymptote 1/s
  // Serial boost pushes the asymptote up.
  EXPECT_GT(app.speedup(64, 4.0), app.speedup(64, 1.0));
}

}  // namespace
}  // namespace rw::sched
