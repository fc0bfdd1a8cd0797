#include "sim/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

namespace rw::sim {

const char* queue_policy_name(QueuePolicy p) {
  switch (p) {
    case QueuePolicy::kCalendar: return "calendar";
    case QueuePolicy::kBinaryHeap: return "heap";
  }
  return "?";
}

const char* exec_mode_name(ExecMode m) {
  switch (m) {
    case ExecMode::kSequential: return "seq";
    case ExecMode::kParallel: return "par";
  }
  return "?";
}

Kernel::Kernel(const KernelConfig& cfg) : cfg_(cfg) {
  if (cfg_.bucket_width_log2 >= 32 || cfg_.num_buckets_log2 >= 24)
    throw std::invalid_argument("KernelConfig: wheel parameters too large");
  num_buckets_ = 1ULL << cfg_.num_buckets_log2;
  if (cfg_.policy == QueuePolicy::kCalendar) {
    bucket_head_.assign(num_buckets_, kNone);
    bucket_bits_.resize((num_buckets_ + 63) / 64, 0);
  }
}

// ------------------------------------------------------------- entry pool

std::uint32_t Kernel::acquire_entry(EventFn fn, TimePs t, int priority,
                                    bool daemon) {
  std::uint32_t idx = free_head_;
  if (idx != kNone) {
    free_head_ = entry(idx).next;
  } else {
    idx = pool_size_;
    if (idx == pool_capacity_) {
      const std::uint32_t n = 1u << (chunks_.size() + kFirstChunkBits);
      chunks_.reserve(chunks_.size() + 1);  // the push_back cannot throw
      chunks_.push_back(std::allocator<Entry>{}.allocate(n));
      pool_capacity_ += n;
    }
    std::construct_at(&entry(idx));
    ++pool_size_;
  }
  Entry& e = entry(idx);
  e.fn = std::move(fn);
  e.time = t;
  e.seq = seq_++;
  e.priority = priority;
  e.next = kNone;
  e.daemon = daemon;
  return idx;
}

// ---------------------------------------------------------- two-tier queue

void Kernel::wheel_insert(std::uint32_t idx) {
  Entry& e = entry(idx);
  const std::uint64_t i = bucket_offset(e.time);
  assert(i >= cur_bucket_ && i < num_buckets_);
  if (active_on_ && i == cur_bucket_) {
    active_.push_back(Node{e.time, e.seq, e.priority, idx});
    std::push_heap(active_.begin(), active_.end(), NodeAfter{});
  } else {
    e.next = bucket_head_[i];
    bucket_head_[i] = idx;
  }
  bucket_bits_[i >> 6] |= 1ULL << (i & 63);
  ++wheel_count_;
}

std::size_t Kernel::next_occupied_bucket(std::size_t from) const {
  std::size_t word = from >> 6;
  std::uint64_t bits = bucket_bits_[word] & (~0ULL << (from & 63));
  while (bits == 0) bits = bucket_bits_[++word];
  return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

void Kernel::activate_bucket(std::size_t b) {
  assert(active_.empty() && b >= cur_bucket_ && bucket_head_[b] != kNone);
  cur_bucket_ = b;
  active_on_ = true;
  for (std::uint32_t i = bucket_head_[b]; i != kNone; i = entry(i).next)
    active_.push_back(node_of(i));
  bucket_head_[b] = kNone;
  std::make_heap(active_.begin(), active_.end(), NodeAfter{});
}

void Kernel::rebase_from_spill() {
  // Only reached with an empty wheel, so the spill minimum is the global
  // minimum outside the lane; re-anchor the wheel at its bucket and
  // migrate every spill event that now falls within the horizon.
  // Migration happens strictly before any same-time event is popped, so
  // events that were once far future merge back into the exact
  // (time, priority, seq) order.
  assert(wheel_count_ == 0 && active_.empty() && !spill_.empty());
  wheel_base_ = spill_.front().time &
                ~((static_cast<TimePs>(1) << cfg_.bucket_width_log2) - 1);
  cur_bucket_ = 0;
  active_on_ = false;
  ++counters_.rebases;
  while (!spill_.empty() &&
         bucket_offset(spill_.front().time) < num_buckets_) {
    wheel_insert(pop_spill());
    ++counters_.migrated;
  }
}

void Kernel::settle_min_bucket() {
  // A non-empty active bucket is the first occupied one: buckets before
  // the cursor are empty (insertions are >= now, and now lies in the
  // cursor's bucket or later) and spill events lie beyond the horizon.
  // An emptied active bucket has its bit clear, so the scan moves on.
  if (!active_.empty()) return;
  if (wheel_count_ == 0) rebase_from_spill();
  activate_bucket(next_occupied_bucket(cur_bucket_));
}

bool Kernel::wheel_runs_before_lane() {
  // While the lane holds events the clock stays at now, so only an event
  // at now can run first, and it sits in the bucket holding now.
  // Activating a later bucket here would be wrong: a later push into an
  // earlier bucket (between now and that bucket) would land behind the
  // cursor and be overtaken.
  const auto runs_first = [this](const Node& top) {
    return top.time == now_ &&
           (top.priority < 0 ||
            (top.priority == 0 && top.seq < entry(lane_head_).seq));
  };
  if (wheel_count_ == 0) {
    // A spill event sits at now only after advance_to() or a direct spill
    // pop. A shallow spill heap is compared as it stands (its top is the
    // minimum outside the lane); a deep one is rebased, which anchors the
    // wheel at now's bucket.
    if (spill_.empty() || spill_.front().time != now_) return false;
    if (spill_is_shallow()) return runs_first(spill_.front());
    rebase_from_spill();
  }
  const std::uint64_t b = bucket_offset(now_);
  if (b >= num_buckets_ || (bucket_bits_[b >> 6] >> (b & 63) & 1) == 0)
    return false;
  if (active_.empty()) activate_bucket(b);
  assert(active_on_ && cur_bucket_ == b);
  return runs_first(active_.front());
}

std::uint32_t Kernel::pop_active() {
  std::pop_heap(active_.begin(), active_.end(), NodeAfter{});
  const std::uint32_t idx = active_.back().idx;
  active_.pop_back();
  --wheel_count_;
  // The bucket stays active while the cursor is on it, so the next insert
  // into it goes straight to the heap.
  if (active_.empty())
    bucket_bits_[cur_bucket_ >> 6] &= ~(1ULL << (cur_bucket_ & 63));
  return idx;
}

std::uint32_t Kernel::pop_lane() {
  const std::uint32_t idx = lane_head_;
  lane_head_ = entry(idx).next;
  if (lane_head_ == kNone) lane_tail_ = kNone;
  return idx;
}

std::uint32_t Kernel::pop_spill() {
  std::pop_heap(spill_.begin(), spill_.end(), NodeAfter{});
  const std::uint32_t idx = spill_.back().idx;
  spill_.pop_back();
  return idx;
}

// ------------------------------------------------------------- public API

void Kernel::push(TimePs t, EventFn fn, int priority, bool daemon) {
  if (t < now_)
    throw std::logic_error("Kernel::schedule_at: time travels backwards");
  const std::uint32_t idx = acquire_entry(std::move(fn), t, priority, daemon);
  if (cfg_.policy == QueuePolicy::kCalendar && t == now_ && priority == 0) {
    // The newest event at (now, 0) runs after every pending one with the
    // same key, so the lane is a FIFO.
    if (lane_tail_ == kNone) {
      lane_head_ = idx;
    } else {
      entry(lane_tail_).next = idx;
    }
    lane_tail_ = idx;
  } else if (cfg_.policy == QueuePolicy::kCalendar &&
             bucket_offset(t) < num_buckets_) {
    // wheel_base_ <= now_ <= t always holds here (the wheel is only ever
    // re-anchored at the next event to pop, or at now), so bucket_offset
    // is exact.
    wheel_insert(idx);
  } else {
    // A shallow spill heap serves events directly, so it reaches
    // kShallowSpill entries before a rebase drains it: the first spill
    // reserves them in one allocation instead of growing step by step.
    if (spill_.capacity() == 0) spill_.reserve(kShallowSpill);
    spill_.push_back(node_of(idx));
    std::push_heap(spill_.begin(), spill_.end(), NodeAfter{});
    ++counters_.spill_pushes;
  }
  ++size_;
  if (!daemon) ++live_;
}

void Kernel::schedule_at(TimePs t, EventFn fn, int priority) {
  push(t, std::move(fn), priority, /*daemon=*/false);
}

void Kernel::schedule_in(DurationPs d, EventFn fn, int priority) {
  push(now_ + d, std::move(fn), priority, /*daemon=*/false);
}

void Kernel::schedule_daemon_at(TimePs t, EventFn fn, int priority) {
  push(t, std::move(fn), priority, /*daemon=*/true);
}

void Kernel::schedule_daemon_in(DurationPs d, EventFn fn, int priority) {
  push(now_ + d, std::move(fn), priority, /*daemon=*/true);
}

TimePs Kernel::next_event_time() const {
  if (size_ == 0) return UINT64_MAX;
  if (lane_head_ != kNone) return now_;
  if (wheel_count_ == 0) return spill_.front().time;
  if (!active_.empty()) return active_.front().time;
  // The first occupied bucket holds the global minimum in an unsorted
  // list. Activating it here could let a later push land behind the
  // cursor, so walk the list; step() activates the bucket.
  TimePs t = UINT64_MAX;
  for (std::uint32_t i = bucket_head_[next_occupied_bucket(cur_bucket_)];
       i != kNone; i = entry(i).next)
    t = std::min(t, entry(i).time);
  return t;
}

bool Kernel::step() {
  if (size_ == 0) return false;
  std::uint32_t idx = kNone;
  if (lane_head_ != kNone && !wheel_runs_before_lane()) {
    idx = pop_lane();
    ++counters_.lane_pops;
  } else if (cfg_.policy == QueuePolicy::kBinaryHeap || spill_is_shallow()) {
    // Spill events lie beyond the horizon and the wheel base moves only in
    // a rebase, so with the wheel empty the spill top is the minimum
    // outside the lane. Popping it moves now past the stale horizon: every
    // later push beyond the lane spills too, until the next rebase.
    idx = pop_spill();
    ++counters_.spill_pops;
  } else {
    settle_min_bucket();
    idx = pop_active();
    ++counters_.wheel_pops;
  }
  --size_;
  Entry& e = entry(idx);
  if (!e.daemon) --live_;
  assert(e.time >= now_);
  now_ = e.time;
  ++executed_;
  // The handler runs from its slot (chunks never move, so `e` stays
  // valid while it schedules), and the slot goes back to the free list
  // only afterwards. A handler that throws leaves its slot out of the free
  // list; ~Kernel still destroys it.
  e.fn();
  e.fn.reset();
  e.next = free_head_;
  free_head_ = idx;
  return true;
}

void Kernel::run(std::uint64_t max_events) {
  stop_requested_ = false;
  std::uint64_t budget = max_events;
  // Stop once only daemons remain: observers never keep the model alive,
  // and the simulated end time stays that of the last live event.
  while (budget-- > 0 && !stop_requested_ && live_ > 0 && step()) {
  }
}

std::uint64_t Kernel::run_window(TimePs limit, bool live_only) {
  std::uint64_t n = 0;
  while (!stop_requested_ && size_ > 0 && (!live_only || live_ > 0) &&
         next_event_time() <= limit) {
    step();
    ++n;
  }
  return n;
}

void Kernel::advance_to(TimePs t) {
  assert(size_ == 0 || next_event_time() >= t);
  if (t > now_) now_ = t;
}

Kernel::~Kernel() {
  // Processes suspend at final_suspend (see process.hpp), so every adopted
  // handle — finished or not — is still valid here and owned by the kernel.
  for (auto h : adopted_) {
    if (h) h.destroy();
  }
  for (std::uint32_t i = 0; i < pool_size_; ++i) std::destroy_at(&entry(i));
  for (std::size_t c = 0; c < chunks_.size(); ++c)
    std::allocator<Entry>{}.deallocate(
        chunks_[c], std::size_t{1} << (c + kFirstChunkBits));
}

}  // namespace rw::sim
