// Queue-implementation equivalence: the calendar queue (delta lane, wheel
// and spill heap) and the binary-heap policy must be observably identical
// — same execution order, same events_executed, same ExecutionRecorder
// fingerprints — on every workload, and both must match an independent
// reference queue on adversarial event streams. This is the determinism
// contract the non-intrusive-debugging claims (Sec. VII) rest on; the
// queue structure is a pure performance choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
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

// ------------------------------------------------ independent reference

// A deliberately naive kernel: one std::priority_queue over
// (time, priority, seq) with the callables in a side table. It shares no
// code with Kernel, so both queue policies are checked against it and not
// only against each other.
class RefKernel {
 public:
  [[nodiscard]] TimePs now() const { return now_; }
  void schedule_at(TimePs t, std::function<void()> fn, int pri = 0) {
    push(t, std::move(fn), pri, false);
  }
  void schedule_daemon_at(TimePs t, std::function<void()> fn, int pri = 0) {
    push(t, std::move(fn), pri, true);
  }
  bool step() {
    if (q_.empty()) return false;
    const Ev ev = q_.top();
    q_.pop();
    if (!ev.daemon) --live_;
    now_ = ev.time;
    ++executed_;
    const std::function<void()> fn = std::move(fns_[ev.fn]);
    fn();
    return true;
  }
  void run() {
    while (live_ > 0 && step()) {
    }
  }
  std::uint64_t run_window(TimePs limit, bool live_only) {
    std::uint64_t n = 0;
    while (!q_.empty() && (!live_only || live_ > 0) &&
           q_.top().time <= limit) {
      step();
      ++n;
    }
    return n;
  }
  [[nodiscard]] TimePs next_event_time() const {
    return q_.empty() ? UINT64_MAX : q_.top().time;
  }
  void advance_to(TimePs t) { now_ = std::max(now_, t); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_events() const { return q_.size(); }
  [[nodiscard]] std::size_t live_events() const { return live_; }

 private:
  struct Ev {
    TimePs time;
    int priority;
    std::uint64_t seq;
    std::size_t fn;
    bool daemon;
  };
  struct After {
    bool operator()(const Ev& a, const Ev& b) const {
      return std::tie(a.time, a.priority, a.seq) >
             std::tie(b.time, b.priority, b.seq);
    }
  };
  void push(TimePs t, std::function<void()> fn, int pri, bool daemon) {
    ASSERT_GE(t, now_);
    fns_.push_back(std::move(fn));
    q_.push(Ev{t, pri, seq_++, fns_.size() - 1, daemon});
    if (!daemon) ++live_;
  }

  std::priority_queue<Ev, std::vector<Ev>, After> q_;
  std::vector<std::function<void()>> fns_;
  TimePs now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
};

KernelConfig calendar(std::uint32_t width_log2, std::uint32_t buckets_log2) {
  KernelConfig cfg;
  cfg.bucket_width_log2 = width_log2;
  cfg.num_buckets_log2 = buckets_log2;
  return cfg;
}

// The queues under test: the default calendar, a tiny wheel (16 ps
// buckets x 8 = 128 ps horizon) that rebases constantly, and the heap.
const KernelConfig kUnderTest[] = {
    calendar(12, 10), calendar(4, 3), KernelConfig{QueuePolicy::kBinaryHeap}};

// An adversarial event stream. Each executed event logs (id, now) and may
// push children, drawn from a seeded Rng in execution order, so two
// queues that ever disagree produce different logs. The draw favours
// what the calendar's structures must get right:
//   * pushes at (now, 0) — the delta lane — next to (now, 0) wheel entries
//     pushed earlier (hence with smaller seq) at shared "hot" times;
//   * negative and positive priorities pushed at now after lane entries;
//   * bursts into one bucket in reverse time order;
//   * far pushes that spill, and daemons.
// Between run_window calls the driver logs next_event_time(), parks the
// clock with advance_to() when nothing is due, and pushes external events
// at now.
template <typename K>
std::vector<std::uint64_t> run_stream(K& k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> log;
  std::uint64_t next_id = 0;
  std::function<void(std::uint64_t, int)> body;
  const auto push = [&](TimePs t, int pri, bool daemon, int depth) {
    const std::uint64_t id = next_id++;
    auto fn = [&body, id, depth] { body(id, depth); };
    if (daemon) {
      k.schedule_daemon_at(t, fn, pri);
    } else {
      k.schedule_at(t, fn, pri);
    }
  };
  const auto draw_priority = [&rng] {
    return rng.next_below(10) < 6 ? 0 : static_cast<int>(rng.next_int(-2, 2));
  };
  body = [&](std::uint64_t id, int depth) {
    log.push_back(id);
    log.push_back(k.now());
    if (depth <= 0) return;
    const std::uint64_t fanout = rng.next_below(4);
    for (std::uint64_t c = 0; c < fanout; ++c) {
      const std::uint64_t r = rng.next_below(100);
      const bool daemon = rng.next_below(100) < 15;
      if (r < 35) {  // at now: the lane for priority 0
        push(k.now(), draw_priority(), daemon, depth - 1);
      } else if (r < 55) {  // a hot time shared with other pushes
        const TimePs hot = (k.now() / 64 + 1 + rng.next_below(3)) * 64;
        push(hot, draw_priority(), daemon, depth - 1);
      } else if (r < 70) {  // one bucket, latest time first
        const TimePs base = (k.now() / 16 + 1 + rng.next_below(2)) * 16;
        for (TimePs off = 16; off-- > 0;)
          if (rng.next_below(4) == 0)
            push(base + off, draw_priority(), daemon, depth - 2);
      } else if (r < 90) {
        push(k.now() + rng.next_below(400), draw_priority(), daemon,
             depth - 1);
      } else {  // far: beyond both horizons
        push(k.now() + 5000 + rng.next_below(20000), draw_priority(), daemon,
             depth - 1);
      }
    }
  };
  for (int root = 0; root < 30; ++root)
    push(rng.next_below(600), draw_priority(), rng.next_below(100) < 15, 5);
  for (int w = 0; w < 24; ++w) {
    const TimePs limit = k.now() + rng.next_below(300);
    log.push_back(k.next_event_time());
    log.push_back(k.run_window(limit, /*live_only=*/w % 3 == 0));
    log.push_back(k.next_event_time());
    if (k.next_event_time() >= limit) k.advance_to(limit);
    for (std::uint64_t e = rng.next_below(4); e > 0; --e)
      push(k.now(), draw_priority(), rng.next_below(100) < 15, 3);
    log.push_back(k.next_event_time());
  }
  k.run();
  log.push_back(k.events_executed());
  log.push_back(k.now());
  log.push_back(k.pending_events());
  log.push_back(k.live_events());
  return log;
}

TEST(KernelQueueReference, AdversarialStreamsMatchTheReferenceQueue) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RefKernel ref;
    const std::vector<std::uint64_t> want = run_stream(ref, seed);
    ASSERT_GT(ref.events_executed(), 100u) << "seed " << seed;
    for (const KernelConfig& cfg : kUnderTest) {
      Kernel k(cfg);
      EXPECT_EQ(run_stream(k, seed), want)
          << "seed " << seed << " policy " << queue_policy_name(cfg.policy)
          << " buckets 2^" << cfg.num_buckets_log2;
    }
  }
}

// Runs `script` on every queue under test and on the reference, and
// returns the reference's execution order after checking the others.
template <typename Script>
std::vector<std::uint64_t> order_on_all_queues(const Script& script) {
  RefKernel ref;
  const std::vector<std::uint64_t> want = script(ref);
  for (const KernelConfig& cfg : kUnderTest) {
    Kernel k(cfg);
    EXPECT_EQ(script(k), want)
        << queue_policy_name(cfg.policy) << " buckets 2^"
        << cfg.num_buckets_log2;
  }
  return want;
}

TEST(KernelQueueReference, LaneEntriesRunAfterOlderWheelEntriesAtNow) {
  // A and B are pushed at (100, 0) before the clock gets there, so they
  // hold smaller seqs than anything pushed at 100; the priority -1 and +1
  // pushes at 100 bracket the lane.
  const auto script = [](auto& k) {
    std::vector<std::uint64_t> order;
    const auto log = [&order](std::uint64_t id) {
      return [&order, id] { order.push_back(id); };
    };
    k.schedule_at(100, log(1));  // A
    k.schedule_at(100, [&k, &order, log] {
      order.push_back(2);  // B: pushes at now
      k.schedule_at(k.now(), log(10));       // lane
      k.schedule_at(k.now(), log(11), 1);    // after the lane
      k.schedule_at(k.now(), log(12));       // lane
      k.schedule_at(k.now(), log(13), -1);   // before everything left
    });
    k.schedule_at(100, log(3));  // C: wheel, older than the lane
    k.schedule_at(100, log(4), 1);
    k.run();
    return order;
  };
  EXPECT_EQ(order_on_all_queues(script),
            (std::vector<std::uint64_t>{1, 2, 13, 3, 10, 12, 4, 11}));
}

TEST(KernelQueueReference, SameBucketInsertsInReverseTimeOrder) {
  const auto script = [](auto& k) {
    std::vector<std::uint64_t> order;
    k.schedule_at(1, [&k, &order] {
      // All within one default 4 ns bucket, latest first, while that
      // bucket is active.
      for (TimePs i = 0; i < 12; ++i) {
        const TimePs t = 4000 - 333 * i;
        k.schedule_at(t, [&order, t] { order.push_back(t); });
      }
    });
    for (TimePs i = 0; i < 5; ++i) {
      const TimePs t = 4095 - 512 * i;
      k.schedule_at(t, [&order, t] { order.push_back(t); });
    }
    k.run();
    return order;
  };
  const std::vector<std::uint64_t> order = order_on_all_queues(script);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.size(), 17u);
}

TEST(KernelQueueReference, LaneDoesNotActivateALaterBucket) {
  // Regression: with the lane non-empty at now, the wheel minimum X sits
  // in a later bucket. If the lane check activated X's bucket, Y — pushed
  // by a lane event into a bucket between now and X — would land behind
  // the cursor and run after X.
  const auto script = [](auto& k) {
    std::vector<std::uint64_t> order;
    k.schedule_at(40, [&order] { order.push_back(40); });  // X, bucket 2
    k.schedule_at(0, [&k, &order] {
      order.push_back(0);
      k.schedule_at(0, [&k, &order] {  // lane
        order.push_back(1);
        k.schedule_at(20, [&order] { order.push_back(20); });  // Y, bucket 1
      });
    });
    k.run();
    return order;
  };
  EXPECT_EQ(order_on_all_queues(script),
            (std::vector<std::uint64_t>{0, 1, 20, 40}));
}

TEST(KernelQueueReference, SpillEventAtNowAfterAdvanceRunsBeforeTheLane) {
  // E waits in the tiny wheel's spill heap; advance_to() parks the clock
  // on its time, and a lane push at that time must still run after it.
  const auto script = [](auto& k) {
    std::vector<std::uint64_t> order;
    k.schedule_at(1000, [&order] { order.push_back(1); });  // E
    k.run_window(999, /*live_only=*/false);
    k.advance_to(1000);
    k.schedule_at(1000, [&order] { order.push_back(2); });  // lane
    k.schedule_at(1000, [&order] { order.push_back(3); }, -1);
    std::vector<std::uint64_t> probe{k.next_event_time()};
    k.run();
    probe.insert(probe.end(), order.begin(), order.end());
    return probe;
  };
  EXPECT_EQ(order_on_all_queues(script),
            (std::vector<std::uint64_t>{1000, 3, 1, 2}));
}

// ------------------------------------------------ shallow spill path

// The shallow path serves the spill heap directly while the wheel is
// empty and the spill heap holds fewer than Kernel::kShallowSpill events.
// These scripts drive it on every queue under test, against the reference.

TEST(KernelQueueReference, BacklogCrossingTheShallowBoundBothWays) {
  // A far backlog (beyond both horizons) grows by one event per step to
  // half again the bound, then drains to nothing, with lane events and
  // near events in between: the calendar goes from direct spill pops to
  // rebases and back.
  const auto script = [](auto& k) {
    std::vector<std::uint64_t> order;
    const std::uint64_t peak = 3 * Kernel::kShallowSpill;
    std::uint64_t pushed = 0;
    std::function<void(std::uint64_t)> body = [&](std::uint64_t id) {
      order.push_back(id);
      order.push_back(k.now());
      // Two far children while the backlog grows, none while it drains.
      for (int c = 0; c < 2 && pushed < peak; ++c, ++pushed) {
        const std::uint64_t child = 100 + pushed;
        k.schedule_at(k.now() + 5'000'000 + 97'000 * (pushed % 13),
                      [&body, child] { body(child); },
                      static_cast<int>(pushed % 3) - 1);
      }
      if (id % 4 == 0)
        k.schedule_at(k.now(), [&order] { order.push_back(1); });  // lane
      if (id % 5 == 0)
        k.schedule_at(k.now() + 7, [&order] { order.push_back(2); });
    };
    k.schedule_at(0, [&body] { body(0); });
    k.run();
    order.push_back(k.events_executed());
    return order;
  };
  order_on_all_queues(script);
  for (const KernelConfig& cfg : kUnderTest) {
    if (cfg.policy != QueuePolicy::kCalendar) continue;
    Kernel k(cfg);
    script(k);
    const Kernel::QueueCounters& c = k.queue_counters();
    EXPECT_GT(c.spill_pops, Kernel::kShallowSpill)
        << "buckets 2^" << cfg.num_buckets_log2;
    EXPECT_GT(c.rebases, 0u) << "buckets 2^" << cfg.num_buckets_log2;
    EXPECT_GT(c.migrated, 0u) << "buckets 2^" << cfg.num_buckets_log2;
  }
}

TEST(KernelQueueReference, ShallowSpillTopAtNowAgainstTheLane) {
  // Four events at one far time and one just after wait in the spill
  // heap with the wheel empty. The first to run (priority -1) pushes lane
  // events and one more priority -1 event at now (which spills: the wheel
  // base is stale).
  // The spill top at now must still beat the lane when its priority is
  // below 0, or 0 with a lower seq; priority 1 runs after the lane.
  const auto script = [](auto& k) {
    std::vector<std::uint64_t> order;
    const auto log = [&order](std::uint64_t id) {
      return [&order, id] { order.push_back(id); };
    };
    constexpr TimePs kFar = 10'000'000;
    k.schedule_at(kFar, log(1));      // A: (far, 0), older than the lane
    k.schedule_at(kFar, [&k, &order, log] {
      order.push_back(2);             // B: runs first
      k.schedule_at(k.now(), log(10));      // lane
      k.schedule_at(k.now(), log(11), -1);  // before A
      k.schedule_at(k.now(), [&k, log] {    // lane, pushes more lane
        k.schedule_at(k.now(), log(13));
        k.schedule_at(k.now(), log(14), -1);
      });
      k.schedule_at(k.now(), log(12), 1);   // after the lane
    }, -1);
    k.schedule_at(kFar, log(3), 1);   // C: after the lane
    k.schedule_at(kFar, log(4));      // D: older than the lane
    k.schedule_at(kFar + 1, log(5), -2);
    k.run();
    order.push_back(k.now());
    return order;
  };
  EXPECT_EQ(order_on_all_queues(script),
            (std::vector<std::uint64_t>{2, 11, 1, 4, 10, 14, 13, 3, 12, 5,
                                        10'000'001}));
}

TEST(KernelQueueReference, PushesAfterAdvanceWhileTheWheelBaseIsStale) {
  // A direct spill pop moves now past the wheel horizon. advance_to()
  // then parks the clock further on, and pushes at and near the parked
  // time (lane, spill, and at the same time as an older spill event) must
  // keep the exact order.
  const auto script = [](auto& k) {
    std::vector<std::uint64_t> order;
    const auto log = [&order, &k](std::uint64_t id) {
      return [&order, &k, id] {
        order.push_back(id);
        order.push_back(k.now());
      };
    };
    k.schedule_at(5'000'000, log(1));
    k.schedule_at(9'000'000, log(2));
    k.schedule_at(9'000'000, log(3), -1);
    k.run_window(6'000'000, /*live_only=*/false);
    k.advance_to(8'999'990);
    order.push_back(k.next_event_time());
    k.schedule_at(k.now(), log(4));            // lane
    k.schedule_at(k.now() + 3, log(5), 1);
    k.schedule_at(9'000'000, log(6), -1);      // beside 3, younger
    k.schedule_at(9'000'000, log(7));          // beside 2, younger
    order.push_back(k.next_event_time());
    k.run_window(8'999'995, /*live_only=*/false);
    k.advance_to(9'000'000);
    order.push_back(k.next_event_time());
    k.schedule_at(9'000'000, log(8));          // lane, after 2 and 7
    k.schedule_at(9'000'000, log(9), -2);      // first at 9 us
    k.run();
    order.push_back(k.events_executed());
    return order;
  };
  EXPECT_EQ(order_on_all_queues(script),
            (std::vector<std::uint64_t>{1, 5'000'000, 9'000'000,
                                        8'999'990, 4, 8'999'990,
                                        5, 8'999'993, 9'000'000,
                                        9, 9'000'000, 3, 9'000'000,
                                        6, 9'000'000, 2, 9'000'000,
                                        7, 9'000'000, 8, 9'000'000, 9}));
}

TEST(KernelQueueReference, WindowsAndNextEventTimeInShallowMode) {
  // Four sparse chains, mostly far apart, keep the calendar on the
  // shallow path; windows of varied length, next_event_time() probes and
  // pushes at now between them must match the reference.
  const auto script = [](auto& k) {
    std::vector<std::uint64_t> log;
    Rng rng(0x5A11);
    std::function<void(std::uint64_t, int)> body = [&](std::uint64_t id,
                                                       int depth) {
      log.push_back(id);
      log.push_back(k.now());
      if (depth == 0) return;
      const std::uint64_t r = rng.next_below(8);
      const TimePs dt = r == 0   ? 0
                        : r == 1 ? rng.next_below(3000)
                                 : 4'500'000 + rng.next_below(40'000'000);
      const int pri = static_cast<int>(rng.next_int(-1, 1));
      k.schedule_at(k.now() + dt, [&body, id, depth] {
        body(id + 1, depth - 1);
      }, pri);
      if (r == 2)
        k.schedule_daemon_at(k.now() + dt, [&log] { log.push_back(7); });
    };
    for (std::uint64_t root = 0; root < 4; ++root)
      k.schedule_at(root * 3000, [&body, root] { body(root * 1000, 100); });
    for (int w = 0; w < 60; ++w) {
      const TimePs limit = k.now() + rng.next_below(30'000'000);
      log.push_back(k.next_event_time());
      log.push_back(k.run_window(limit, /*live_only=*/w % 2 == 0));
      log.push_back(k.next_event_time());
      if (k.next_event_time() >= limit) k.advance_to(limit);
      if (rng.next_below(3) == 0)
        k.schedule_at(k.now(), [&log] { log.push_back(8); },
                      static_cast<int>(rng.next_int(-1, 1)));
      log.push_back(k.next_event_time());
    }
    k.run();
    log.push_back(k.events_executed());
    log.push_back(k.pending_events());
    return log;
  };
  order_on_all_queues(script);
  Kernel k;
  script(k);
  EXPECT_GT(k.queue_counters().spill_pops, 100u);
}

// ------------------------------------------------------ work counters

struct CounterPin {
  const char* name;
  bool mesh;
  Kernel::QueueCounters want;
};

// Queue work of each perf demo at seed 7, scale 8 on a 4-core bus and a
// 2x2 mesh, untraced (the sim_untraced demo op). Exact: the counters are
// a function of the event stream and the queue configuration, so a
// change to either shows here.
constexpr CounterPin kCounterPins[] = {
    {"pipeline", false, {342, 636, 4, 636, 0, 0}},
    {"pipeline", true, {342, 636, 4, 636, 0, 0}},
    {"forkjoin", false, {261, 160, 0, 160, 0, 0}},
    {"forkjoin", true, {261, 160, 0, 160, 0, 0}},
    {"shared_hammer", false, {5, 330, 6, 330, 0, 0}},
    {"shared_hammer", true, {13, 322, 6, 322, 0, 0}},
    {"tiled_pipeline", false, {4, 1407, 1, 1407, 0, 0}},
    {"tiled_pipeline", true, {4, 1407, 1, 1407, 0, 0}},
};

std::pair<Kernel::QueueCounters, std::uint64_t> demo_counters(
    const std::string& name, bool mesh, QueuePolicy policy) {
  PlatformConfig cfg = PlatformConfig::homogeneous(4);
  if (mesh) {
    cfg.interconnect = PlatformConfig::Icn::kMesh;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
  }
  cfg.kernel.policy = policy;
  Platform plat(std::move(cfg));
  EXPECT_TRUE(perf::spawn_workload(name, plat, /*seed=*/7, /*scale=*/8));
  plat.run();
  return {plat.kernel().queue_counters(), plat.kernel().events_executed()};
}

std::string counters_str(const Kernel::QueueCounters& c) {
  return strformat("{%llu, %llu, %llu, %llu, %llu, %llu}",
                   static_cast<unsigned long long>(c.lane_pops),
                   static_cast<unsigned long long>(c.spill_pops),
                   static_cast<unsigned long long>(c.wheel_pops),
                   static_cast<unsigned long long>(c.spill_pushes),
                   static_cast<unsigned long long>(c.rebases),
                   static_cast<unsigned long long>(c.migrated));
}

TEST(KernelQueueCounters, PerfDemosMatchTheirPins) {
  for (const CounterPin& pin : kCounterPins) {
    const auto [c, events] =
        demo_counters(pin.name, pin.mesh, QueuePolicy::kCalendar);
    EXPECT_EQ(counters_str(c), counters_str(pin.want))
        << pin.name << (pin.mesh ? "/mesh" : "/bus");
    EXPECT_EQ(c.lane_pops + c.spill_pops + c.wheel_pops, events);
  }
}

TEST(KernelQueueCounters, OnlyABacklogOfTheShallowBoundReanchorsTheWheel) {
  // n far events with an empty wheel: one short of the bound, the first
  // step pops the spill heap directly; at the bound, it rebases and
  // migrates all n (they share one bucket) before serving from the wheel.
  for (const std::size_t n :
       {Kernel::kShallowSpill - 1, Kernel::kShallowSpill}) {
    Kernel k;
    for (std::size_t i = 0; i < n; ++i)
      k.schedule_at(10'000'000 + i, [] {});
    ASSERT_TRUE(k.step());
    const Kernel::QueueCounters& c = k.queue_counters();
    const bool deep = n == Kernel::kShallowSpill;
    EXPECT_EQ(c.spill_pops, deep ? 0u : 1u) << n;
    EXPECT_EQ(c.wheel_pops, deep ? 1u : 0u) << n;
    EXPECT_EQ(c.rebases, deep ? 1u : 0u) << n;
    EXPECT_EQ(c.migrated, deep ? n : 0u) << n;
    EXPECT_EQ(c.spill_pushes, n);
  }
}

TEST(KernelQueueCounters, TheHeapServesEveryEventFromTheSpillHeap) {
  const auto [c, events] =
      demo_counters("pipeline", /*mesh=*/false, QueuePolicy::kBinaryHeap);
  EXPECT_EQ(c.spill_pops, events);
  EXPECT_EQ(c.spill_pushes, events);
  EXPECT_EQ(c.lane_pops + c.wheel_pops + c.rebases + c.migrated, 0u);
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
