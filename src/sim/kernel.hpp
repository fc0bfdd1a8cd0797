// Discrete-event simulation kernel.
//
// The kernel is the time base of the MPSoC platform model (Sec. VII's
// "virtual platform") and of everything that runs on it: perf workloads,
// fault scenarios and the debugger. The scheduling simulators (Sec. II)
// and the dataflow executors (Sec. III) run their own event loops and do
// not post here. Determinism is a design requirement — two runs with
// the same seed must produce identical event orders (the foundation of the
// non-intrusive-debugging claims) — so ties in time are broken by an
// explicit priority and then by insertion sequence, never by queue
// implementation details.
//
// Hot-path design (see DESIGN.md "Kernel internals"):
//   * EventFn is an SBO callable (InplaceFunction<void(), 48>): every
//     capture the simulator creates fits inline, so scheduling an event
//     allocates nothing.
//   * Every pending event lives in one pooled, free-listed Entry that
//     carries its callable, its (time, priority, seq) key and one `next`
//     link; the heaps order 24-byte trivially-copyable Node records, so
//     sifts never move a closure.
//   * QueuePolicy::kCalendar (the default) keeps a FIFO delta lane for
//     events at (now, priority 0), a near-term calendar wheel of unsorted
//     intrusive bucket lists (the bucket under the cursor is heapified
//     into one reused heap) and a spill heap for far-future events.
//     While the wheel is empty and the spill heap is shallow, step() pops
//     the spill heap directly and re-anchors the wheel only for a deep
//     backlog.
//     QueuePolicy::kBinaryHeap keeps every event in the spill heap alone,
//     a structurally independent twin; both produce bit-identical
//     execution orders.
#pragma once

#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inplace_function.hpp"
#include "common/units.hpp"

namespace rw::sim {

using EventFn = common::InplaceFunction<void(), 48>;

/// Event-queue implementation selector. kCalendar is the production fast
/// path; kBinaryHeap is one binary heap over the same entry pool, kept
/// selectable so tests and benches can prove the two orders and
/// fingerprints identical.
enum class QueuePolicy { kCalendar, kBinaryHeap };

[[nodiscard]] const char* queue_policy_name(QueuePolicy p);

/// How Platform::run() drives a tile-partitioned platform (num_tiles > 1):
/// kSequential iterates the tiles' epoch windows on the calling thread,
/// kParallel runs one worker thread per tile. Both modes execute the
/// identical conservative-lookahead epoch algorithm (see parallel.hpp), so
/// the choice is never observable in simulation results — only in wall
/// clock. Sequential stays the default reference path.
enum class ExecMode { kSequential, kParallel };

struct KernelConfig {
  QueuePolicy policy = QueuePolicy::kCalendar;
  /// Calendar bucket width is 2^bucket_width_log2 picoseconds and the
  /// wheel spans 2^num_buckets_log2 buckets; events beyond
  /// `now + width * buckets` (the horizon) wait in the spill heap. The
  /// defaults (4 ns buckets, 1024 of them ≈ 4.2 us horizon) fit the
  /// platform model's event mix: same-delta resumes and ns-scale delays
  /// hit the wheel; multi-us compute blocks spill, and migrate on rebase
  /// only in a deep backlog (see Kernel::kShallowSpill).
  std::uint32_t bucket_width_log2 = 12;
  std::uint32_t num_buckets_log2 = 10;
  /// Tile partitioning (see parallel.hpp). num_tiles == 1 keeps the single
  /// sequential kernel; > 1 makes the Platform build one kernel instance
  /// per tile and drive them through the conservative TiledEngine.
  /// validate_tiling() rejects num_tiles > core count and platforms whose
  /// fabric config yields a zero cross-tile lookahead.
  ExecMode exec = ExecMode::kSequential;
  std::uint32_t num_tiles = 1;
};

/// Central event queue and simulated clock.
class Kernel {
 public:
  /// While the wheel is empty and the spill heap holds fewer events than
  /// this, step() pops the spill heap directly instead of re-anchoring
  /// the wheel and migrating the spill heap into it (DESIGN.md "Kernel
  /// internals"). Chosen by the sweep in EXPERIMENTS.md E13.
  static constexpr std::size_t kShallowSpill = 64;

  /// Work counters of the event queue: which structure served each
  /// executed event, and how often events moved between structures. They
  /// are a function of the event stream and the queue configuration
  /// alone. Under kBinaryHeap every push is a spill push and every pop a
  /// spill pop.
  struct QueueCounters {
    std::uint64_t lane_pops = 0;     // served from the delta lane
    std::uint64_t spill_pops = 0;    // served straight from the spill heap
    std::uint64_t wheel_pops = 0;    // served from the active bucket
    std::uint64_t spill_pushes = 0;  // pushed into the spill heap
    std::uint64_t rebases = 0;       // wheel re-anchors
    std::uint64_t migrated = 0;      // spill events moved into the wheel
  };

  Kernel() : Kernel(KernelConfig{}) {}
  explicit Kernel(QueuePolicy policy) : Kernel(KernelConfig{policy}) {}
  explicit Kernel(const KernelConfig& cfg);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] QueuePolicy policy() const { return cfg_.policy; }
  [[nodiscard]] const KernelConfig& config() const { return cfg_; }

  /// Current simulated time.
  [[nodiscard]] TimePs now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now). Lower `priority`
  /// runs first among events at the same timestamp.
  void schedule_at(TimePs t, EventFn fn, int priority = 0);

  /// Schedule `fn` after a relative delay.
  void schedule_in(DurationPs d, EventFn fn, int priority = 0);

  /// Daemon events: periodic observers (samplers, counter windows, DVFS
  /// governors) that must not keep the simulation alive on their own.
  /// run() returns once only daemon events remain, leaving them pending —
  /// so a self-rescheduling daemon still lets the queue drain, and two
  /// daemons cannot keep each other alive. Ordering among executed events
  /// is the same (time, priority, seq) relation as for normal events.
  void schedule_daemon_at(TimePs t, EventFn fn, int priority = 0);
  void schedule_daemon_in(DurationPs d, EventFn fn, int priority = 0);

  /// Execute the single next event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains, `request_stop()` is called, or the event
  /// budget is exhausted (a safety net against runaway simulations).
  void run(std::uint64_t max_events = UINT64_MAX);

  /// One epoch window of the tiled engine: execute events with timestamp
  /// <= `limit` in (time, priority, seq) order. With `live_only` the
  /// window additionally stops once no live events remain (run()'s
  /// termination rule); without it daemons keep executing up to the
  /// limit. Honours request_stop() but — unlike run() — never clears it:
  /// the engine owns the stop flag across windows.
  /// Returns the number of events executed.
  std::uint64_t run_window(TimePs limit, bool live_only);

  /// Advance the clock to `t` without executing anything (the tiled
  /// engine's run_until() epilogue). Pre: no pending event earlier than t.
  void advance_to(TimePs t);

  /// Ask run() or the current window to return after the current event.
  void request_stop() { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }
  void clear_stop() { stop_requested_ = false; }

  /// Number of events executed so far (a cheap progress/determinism probe).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] const QueueCounters& queue_counters() const {
    return counters_;
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pending events (daemons included) and non-daemon events (run()'s
  /// liveness condition).
  [[nodiscard]] std::size_t pending_events() const { return size_; }
  [[nodiscard]] std::size_t live_events() const { return live_; }

  /// Timestamp of the next pending event; UINT64_MAX when empty.
  [[nodiscard]] TimePs next_event_time() const;

  /// Register a coroutine handle owned by the kernel; it is destroyed at
  /// kernel destruction if still suspended. See process.hpp.
  void adopt(std::coroutine_handle<> h) { adopted_.push_back(h); }

  ~Kernel();

 private:
  // Pooled storage for one pending event. The queues carry only the pool
  // index; `next` links an entry into the free list, a wheel bucket's
  // list or the delta lane (it is in at most one of them at a time).
  static constexpr std::uint32_t kNone = UINT32_MAX;
  struct Entry {
    EventFn fn;
    TimePs time = 0;
    std::uint64_t seq = 0;
    std::int32_t priority = 0;
    std::uint32_t next = kNone;
    bool daemon = false;
  };

  // Trivially-copyable heap record; the full deterministic order is
  // (time asc, priority asc, seq asc) — `seq` is a strict total-order
  // tie-break, so every queue implementation pops an identical sequence.
  struct Node {
    TimePs time;
    std::uint64_t seq;
    std::int32_t priority;
    std::uint32_t idx;
  };
  struct NodeAfter {
    bool operator()(const Node& a, const Node& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  void push(TimePs t, EventFn fn, int priority, bool daemon);
  std::uint32_t acquire_entry(EventFn fn, TimePs t, int priority,
                              bool daemon);
  // Chunk c holds the 2^(c + kFirstChunkBits) entries from index
  // 2^kFirstChunkBits * (2^c - 1) on.
  [[nodiscard]] Entry& entry(std::uint32_t idx) const {
    const auto c = static_cast<std::uint32_t>(
        std::bit_width((idx >> kFirstChunkBits) + 1u) - 1);
    return chunks_[c][idx - ((1u << (c + kFirstChunkBits)) -
                             (1u << kFirstChunkBits))];
  }
  [[nodiscard]] Node node_of(std::uint32_t idx) const {
    const Entry& e = entry(idx);
    return Node{e.time, e.seq, e.priority, idx};
  }

  void wheel_insert(std::uint32_t idx);
  void rebase_from_spill();
  /// First non-empty bucket index >= from. Pre: wheel_count_ > 0.
  [[nodiscard]] std::size_t next_occupied_bucket(std::size_t from) const;
  /// Make bucket `b` the active bucket: its list moves into active_.
  /// Pre: active_ is empty and b is occupied.
  void activate_bucket(std::size_t b);
  /// Activate the bucket holding the global minimum of the wheel and the
  /// spill heap (rebasing the wheel first if it is empty). Pre: the lane
  /// is empty and wheel_count_ + spill_.size() > 0.
  void settle_min_bucket();
  /// True while step() serves the spill heap directly: the wheel is empty
  /// and the spill heap holds fewer than kShallowSpill events.
  [[nodiscard]] bool spill_is_shallow() const {
    return wheel_count_ == 0 && spill_.size() < kShallowSpill;
  }
  /// True when the wheel or spill minimum runs before the lane head: it is
  /// at now and has priority < 0, or priority 0 and a smaller seq. Only
  /// the bucket holding now may be activated here (see kernel.cpp); while
  /// the spill heap is shallow its top is compared directly.
  [[nodiscard]] bool wheel_runs_before_lane();
  std::uint32_t pop_active();
  std::uint32_t pop_lane();
  std::uint32_t pop_spill();
  /// Bucket index of `t` relative to wheel_base_, or >= num_buckets_ when
  /// `t` lies beyond the horizon. Pre: t >= wheel_base_.
  [[nodiscard]] std::uint64_t bucket_offset(TimePs t) const {
    return (t - wheel_base_) >> cfg_.bucket_width_log2;
  }

  KernelConfig cfg_;
  std::uint64_t num_buckets_ = 0;  // 2^num_buckets_log2, cached

  // The pool is a list of chunks that double in size (32, 64, ...
  // entries), so growing it never moves an entry: a deep backlog costs no
  // relocation of pending callables, and a handler runs from its own slot.
  // An entry is constructed when it is first handed out.
  static constexpr std::uint32_t kFirstChunkBits = 5;
  std::vector<Entry*> chunks_;
  std::uint32_t pool_size_ = 0;      // entries constructed so far
  std::uint32_t pool_capacity_ = 0;  // entries the chunks hold
  std::uint32_t free_head_ = kNone;
  // Calendar wheel: one unsorted intrusive list per bucket. When the
  // cursor reaches a bucket its list moves into active_, a heap reused by
  // every bucket; inserts into the active bucket push onto that heap.
  std::vector<std::uint32_t> bucket_head_;
  // One bit per bucket, set while it holds events (in its list or, for
  // the active bucket, in active_): settle_min_bucket() finds the next
  // non-empty bucket with a word scan + countr_zero instead of walking
  // empty buckets one by one.
  std::vector<std::uint64_t> bucket_bits_;
  std::vector<Node> active_;
  // cur_bucket_ is the active bucket: inserts into it go to active_. It
  // stays active once emptied, until the cursor moves on or a rebase.
  bool active_on_ = false;
  // Min-heap beyond the horizon; under kBinaryHeap, every pending event.
  std::vector<Node> spill_;
  TimePs wheel_base_ = 0;
  std::size_t cur_bucket_ = 0;
  std::size_t wheel_count_ = 0;
  // Delta lane: events pushed at (now, priority 0), in seq order.
  std::uint32_t lane_head_ = kNone;
  std::uint32_t lane_tail_ = kNone;

  TimePs now_ = 0;
  std::size_t size_ = 0;
  std::size_t live_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  QueueCounters counters_;
  bool stop_requested_ = false;
  std::vector<std::coroutine_handle<>> adopted_;
};

}  // namespace rw::sim
