// Queue-implementation equivalence: the calendar/two-tier queue and the
// legacy binary heap must be observably identical — same execution order,
// same events_executed, same ExecutionRecorder fingerprints — on every
// workload. This is the determinism contract the non-intrusive-debugging
// claims (Sec. VII) rest on; the queue swap is a pure performance change.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "perf/profiler.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/kernel.hpp"
#include "sim/platform.hpp"
#include "vpdebug/replay.hpp"
#include "sim_run_to.hpp"

namespace rw::sim {
namespace {

constexpr QueuePolicy kPolicies[] = {QueuePolicy::kCalendar,
                                     QueuePolicy::kBinaryHeap};

class KernelQueue : public ::testing::TestWithParam<QueuePolicy> {};

TEST_P(KernelQueue, ExecutesInTimeOrderAcrossTheHorizon) {
  // Times straddle the default wheel horizon (~4.2 us) so both the wheel
  // and the spill/rebase path are exercised.
  Kernel k(GetParam());
  std::vector<TimePs> fired;
  const std::vector<TimePs> times = {7,         4096,     4097,
                                     5'000'000, 40'000'000, 41'000'000};
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const TimePs t = *it;
    k.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  k.run();
  std::vector<TimePs> want = times;
  EXPECT_EQ(fired, want);
  EXPECT_EQ(k.now(), times.back());
  EXPECT_EQ(k.events_executed(), times.size());
}

TEST_P(KernelQueue, TieBreakStress) {
  // Many events at identical timestamps with shuffled priorities and
  // insertion orders: execution must follow the documented
  // (time, priority, seq) relation exactly.
  Kernel k(GetParam());
  Rng rng(0xB1A5ED);
  struct Scheduled {
    TimePs time;
    int priority;
    std::size_t seq;  // insertion order
  };
  std::vector<Scheduled> scheduled;
  std::vector<std::size_t> executed;
  constexpr std::size_t kEvents = 2000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    // 8 distinct timestamps and 5 priorities over 2000 events: every
    // (time, priority) cell holds ~50 ties resolved by seq alone.
    const TimePs t = 100 * rng.next_below(8);
    const int pri = static_cast<int>(rng.next_int(-2, 2));
    scheduled.push_back({t, pri, i});
    k.schedule_at(t, [&executed, i] { executed.push_back(i); }, pri);
  }
  k.run();

  std::vector<Scheduled> want = scheduled;
  std::stable_sort(want.begin(), want.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return std::tie(a.time, a.priority, a.seq) <
                            std::tie(b.time, b.priority, b.seq);
                   });
  ASSERT_EQ(executed.size(), kEvents);
  for (std::size_t i = 0; i < kEvents; ++i)
    ASSERT_EQ(executed[i], want[i].seq) << "divergence at position " << i;
}

TEST_P(KernelQueue, DaemonsAndRunUntilBoundaries) {
  Kernel k(GetParam());
  std::vector<TimePs> ticks;
  std::function<void()> observer = [&] {
    ticks.push_back(k.now());
    k.schedule_daemon_in(10, observer);
  };
  k.schedule_daemon_at(10, observer);
  k.schedule_at(25, [] {});
  run_to(k, 35);
  EXPECT_EQ(ticks, (std::vector<TimePs>{10, 20, 30}));
  EXPECT_EQ(k.now(), 35u);
  // Events landing exactly on a later boundary run; the daemon one past
  // it stays pending.
  k.schedule_at(40, [] {});
  run_to(k, 40);
  EXPECT_EQ(ticks.back(), 40u);
  EXPECT_EQ(k.now(), 40u);
  EXPECT_FALSE(k.empty());
  EXPECT_EQ(k.live_events(), 0u);
}

TEST_P(KernelQueue, SchedulingFromHandlersReusesPooledEntries) {
  // Waves of self-rescheduling events: steady state must recycle entries
  // (the pool keeps the kernel allocation-free; this test pins behavior,
  // the bench pins the speed).
  Kernel k(GetParam());
  std::uint64_t count = 0;
  struct Tick {
    Kernel* k;
    std::uint64_t* count;
    void operator()() const {
      if (++*count < 50'000) k->schedule_in(3, Tick{k, count});
    }
  };
  static_assert(EventFn::stores_inline<Tick>);
  for (int lane = 0; lane < 4; ++lane)
    k.schedule_at(static_cast<TimePs>(lane), Tick{&k, &count});
  k.run();
  EXPECT_EQ(count, 50'000u + 3u);
  EXPECT_TRUE(k.empty());
}

TEST_P(KernelQueue, MoveOnlyAndOversizedCapturesExecute) {
  Kernel k(GetParam());
  int sum = 0;
  auto p = std::make_unique<int>(41);
  k.schedule_at(5, [&sum, p = std::move(p)] { sum += *p; });
  struct Big {
    int* sum;
    char pad[120];
  };
  k.schedule_at(6, [big = Big{&sum, {}}] { *big.sum += 1; });
  k.run();
  EXPECT_EQ(sum, 42);
}

INSTANTIATE_TEST_SUITE_P(Policies, KernelQueue,
                         ::testing::ValuesIn(kPolicies),
                         [](const auto& info) {
                           return std::string(queue_policy_name(info.param));
                         });

// ------------------------------------------------- cross-implementation

std::vector<std::size_t> run_soup(QueuePolicy policy, std::uint64_t seed) {
  // A randomized schedule script (normal + daemon events, handler-driven
  // rescheduling, run-to boundaries, a tiny wheel to force spills and
  // rebases) executed on the given queue. Returns the execution order.
  KernelConfig cfg;
  cfg.policy = policy;
  cfg.bucket_width_log2 = 4;  // 16 ps buckets ...
  cfg.num_buckets_log2 = 3;   // ... x8 = 128 ps horizon: constant spilling
  Kernel k(cfg);
  Rng rng(seed);
  std::vector<std::size_t> order;
  std::size_t next_id = 0;
  std::function<void(std::size_t, int)> body =
      [&](std::size_t id, int depth) {
        order.push_back(id);
        if (depth <= 0) return;
        const std::uint64_t fanout = rng.next_below(3);
        for (std::uint64_t c = 0; c < fanout; ++c) {
          const TimePs dt = rng.next_below(400);  // 0 = same-time resume
          const int pri = static_cast<int>(rng.next_int(-1, 1));
          const std::size_t child = next_id++;
          if (rng.next_bool(0.2)) {
            k.schedule_daemon_in(dt, [&body, child, depth] {
              body(child, depth - 1);
            }, pri);
          } else {
            k.schedule_in(dt, [&body, child, depth] {
              body(child, depth - 1);
            }, pri);
          }
        }
      };
  for (int root = 0; root < 40; ++root) {
    const std::size_t id = next_id++;
    k.schedule_at(rng.next_below(600), [&body, id] { body(id, 4); },
                  static_cast<int>(rng.next_int(-1, 1)));
  }
  run_to(k, 300);
  k.run();
  order.push_back(10'000'000 + k.events_executed());
  order.push_back(static_cast<std::size_t>(k.now()));
  return order;
}

TEST(KernelQueueCross, RandomSoupOrderIsBitIdenticalAcrossQueues) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    EXPECT_EQ(run_soup(QueuePolicy::kCalendar, seed),
              run_soup(QueuePolicy::kBinaryHeap, seed))
        << "seed " << seed;
  }
}

struct CorpusRun {
  std::uint64_t fingerprint;
  std::uint64_t trace_events;
  std::uint64_t kernel_events;
  TimePs makespan;
};

CorpusRun run_workload(const std::string& name, QueuePolicy policy,
                       std::uint64_t seed, bool with_profiler) {
  PlatformConfig cfg = PlatformConfig::homogeneous(4);
  cfg.trace_enabled = true;
  cfg.kernel.policy = policy;
  Platform p(std::move(cfg));
  vpdebug::ExecutionRecorder rec(p);
  std::unique_ptr<perf::PerfSession> session;
  if (with_profiler) {
    // Attached sampling daemons must not perturb the order either.
    perf::PerfConfig pcfg;
    pcfg.profiler.period = microseconds(5);
    session = std::make_unique<perf::PerfSession>(p, pcfg);
  }
  EXPECT_TRUE(perf::spawn_workload(name, p, seed, /*scale=*/2));
  p.kernel().run();
  return {rec.fingerprint(), rec.events(), p.kernel().events_executed(),
          p.kernel().now()};
}

TEST(KernelQueueCross, WorkloadCorpusFingerprintsAreIdentical) {
  for (const auto& w : perf::workload_registry()) {
    for (std::uint64_t seed : {3ULL, 99ULL}) {
      for (bool profiled : {false, true}) {
        const CorpusRun a =
            run_workload(w.name, QueuePolicy::kCalendar, seed, profiled);
        const CorpusRun b =
            run_workload(w.name, QueuePolicy::kBinaryHeap, seed, profiled);
        EXPECT_EQ(a.fingerprint, b.fingerprint)
            << w.name << " seed=" << seed << " profiled=" << profiled;
        EXPECT_EQ(a.trace_events, b.trace_events) << w.name;
        EXPECT_EQ(a.kernel_events, b.kernel_events) << w.name;
        EXPECT_EQ(a.makespan, b.makespan) << w.name;
      }
    }
  }
}

TEST(KernelQueueCross, DmaTimerIrqScenarioFingerprintsAreIdentical) {
  auto run_once = [](QueuePolicy policy) {
    PlatformConfig cfg = PlatformConfig::homogeneous(2);
    cfg.trace_enabled = true;
    cfg.kernel.policy = policy;
    Platform p(std::move(cfg));
    vpdebug::ExecutionRecorder rec(p);
    p.timer().start_periodic(microseconds(2));
    int transfers = 0;
    std::function<void()> chain = [&] {
      if (++transfers < 5)
        p.dma().start(p.shared_base(), p.shared_base() + 4096, 512, chain);
    };
    p.dma().start(p.shared_base(), p.shared_base() + 4096, 512, chain);
    run_to(p.kernel(), microseconds(40));
    p.timer().stop();
    p.kernel().run();
    return std::pair{rec.fingerprint(), p.kernel().events_executed()};
  };
  EXPECT_EQ(run_once(QueuePolicy::kCalendar),
            run_once(QueuePolicy::kBinaryHeap));
}

}  // namespace
}  // namespace rw::sim
