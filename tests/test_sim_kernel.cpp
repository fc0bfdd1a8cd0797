#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <vector>
#include "sim_run_to.hpp"

namespace rw::sim {
namespace {

TEST(Kernel, StartsAtTimeZero) {
  Kernel k;
  EXPECT_EQ(k.now(), 0u);
  EXPECT_TRUE(k.empty());
}

TEST(Kernel, ExecutesInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(30, [&] { order.push_back(3); });
  k.schedule_at(10, [&] { order.push_back(1); });
  k.schedule_at(20, [&] { order.push_back(2); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 30u);
}

TEST(Kernel, TiesBrokenByPriorityThenInsertion) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(5, [&] { order.push_back(1); }, /*priority=*/1);
  k.schedule_at(5, [&] { order.push_back(2); }, /*priority=*/0);
  k.schedule_at(5, [&] { order.push_back(3); }, /*priority=*/0);
  k.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Kernel, HandlersMayScheduleMoreEvents) {
  Kernel k;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) k.schedule_in(10, tick);
  };
  k.schedule_at(0, tick);
  k.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(k.now(), 40u);
}

TEST(Kernel, SchedulingInPastThrows) {
  Kernel k;
  k.schedule_at(100, [] {});
  k.run();
  EXPECT_THROW(k.schedule_at(50, [] {}), std::logic_error);
}

TEST(Kernel, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Kernel k;
  std::vector<TimePs> fired;
  for (TimePs t : {10u, 20u, 30u, 40u})
    k.schedule_at(t, [&, t] { fired.push_back(t); });
  run_to(k, 25);
  EXPECT_EQ(fired, (std::vector<TimePs>{10, 20}));
  EXPECT_EQ(k.now(), 25u);
  run_to(k, 100);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(k.now(), 100u);
}

TEST(Kernel, RequestStopBreaksRun) {
  Kernel k;
  int executed = 0;
  for (int i = 0; i < 10; ++i) {
    k.schedule_at(static_cast<TimePs>(i * 10), [&] {
      if (++executed == 3) k.request_stop();
    });
  }
  k.run();
  EXPECT_EQ(executed, 3);
  // Remaining events still present; run resumes.
  k.run();
  EXPECT_EQ(executed, 10);
}

TEST(Kernel, EventBudgetLimitsRunawayLoops) {
  Kernel k;
  std::uint64_t count = 0;
  std::function<void()> forever = [&] {
    ++count;
    k.schedule_in(1, forever);
  };
  k.schedule_at(0, forever);
  k.run(/*max_events=*/1000);
  EXPECT_EQ(count, 1000u);
}

TEST(Kernel, CountsExecutedEvents) {
  Kernel k;
  for (int i = 0; i < 7; ++i) k.schedule_at(static_cast<TimePs>(i), [] {});
  k.run();
  EXPECT_EQ(k.events_executed(), 7u);
}

TEST(Kernel, StepReturnsFalseWhenEmpty) {
  Kernel k;
  EXPECT_FALSE(k.step());
  k.schedule_at(1, [] {});
  EXPECT_TRUE(k.step());
  EXPECT_FALSE(k.step());
}

TEST(Kernel, DaemonEventsDoNotKeepRunAlive) {
  Kernel k;
  int live_fired = 0, daemon_fired = 0;
  // A self-rescheduling daemon: without daemon semantics run() would spin
  // on it forever.
  std::function<void()> observer = [&] {
    ++daemon_fired;
    k.schedule_daemon_in(10, observer);
  };
  k.schedule_daemon_at(0, observer);
  k.schedule_at(35, [&] { ++live_fired; });
  k.run();
  EXPECT_EQ(live_fired, 1);
  // Daemons at t=0,10,20,30 ran; the t=40 one stayed pending.
  EXPECT_EQ(daemon_fired, 4);
  EXPECT_EQ(k.now(), 35u);
  EXPECT_EQ(k.live_events(), 0u);
  EXPECT_FALSE(k.empty());  // the pending daemon is still queued
}

TEST(Kernel, RunWithOnlyDaemonsReturnsImmediately) {
  Kernel k;
  int fired = 0;
  k.schedule_daemon_at(5, [&] { ++fired; });
  k.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(k.now(), 0u);
}

TEST(Kernel, DaemonsExecuteWithinRunUntilHorizon) {
  Kernel k;
  std::vector<TimePs> ticks;
  std::function<void()> observer = [&] {
    ticks.push_back(k.now());
    k.schedule_daemon_in(10, observer);
  };
  k.schedule_daemon_at(10, observer);
  run_to(k, 35);
  EXPECT_EQ(ticks, (std::vector<TimePs>{10, 20, 30}));
  EXPECT_EQ(k.now(), 35u);
}

TEST(Kernel, LiveEventsTracksOnlyNonDaemons) {
  Kernel k;
  k.schedule_at(10, [] {});
  k.schedule_at(20, [] {});
  k.schedule_daemon_at(15, [] {});
  EXPECT_EQ(k.live_events(), 2u);
  k.run();
  EXPECT_EQ(k.live_events(), 0u);
}

TEST(Kernel, RunStopsAtLastLiveEventEvenWithTiedDaemon) {
  Kernel k;
  std::vector<int> order;
  // A daemon tied with the final live event never runs: run() returns the
  // moment the last live event retires, so makespans are unaffected by
  // attached observers.
  k.schedule_daemon_at(10, [&] { order.push_back(2); }, /*priority=*/100);
  k.schedule_at(10, [&] { order.push_back(1); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, DeterministicEventOrderAcrossRuns) {
  auto run_once = [] {
    Kernel k;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      k.schedule_at(static_cast<TimePs>((i * 7) % 13),
                    [&order, i] { order.push_back(i); });
    }
    k.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace rw::sim
