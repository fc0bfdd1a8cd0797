#include "sim/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
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
    buckets_.resize(num_buckets_);
    bucket_bits_.resize((num_buckets_ + 63) / 64, 0);
  }
}

// ------------------------------------------------------------- entry pool

std::uint32_t Kernel::acquire_entry(EventFn fn, bool daemon) {
  if (free_head_ != kNone) {
    const std::uint32_t idx = free_head_;
    Entry& e = pool_[idx];
    free_head_ = e.next_free;
    e.fn = std::move(fn);
    e.daemon = daemon;
    return idx;
  }
  pool_.push_back(Entry{std::move(fn), kNone, daemon});
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Kernel::release_entry(std::uint32_t idx) {
  Entry& e = pool_[idx];
  e.fn.reset();
  e.next_free = free_head_;
  free_head_ = idx;
}

// ---------------------------------------------------------- two-tier queue

void Kernel::wheel_insert(const Node& n) {
  const std::uint64_t i = bucket_offset(n.time);
  auto& b = buckets_[i];
  b.push_back(n);
  std::push_heap(b.begin(), b.end(), NodeAfter{});
  bucket_bits_[i >> 6] |= 1ULL << (i & 63);
  ++wheel_count_;
}

std::size_t Kernel::next_occupied_bucket(std::size_t from) const {
  std::size_t word = from >> 6;
  std::uint64_t bits = bucket_bits_[word] & (~0ULL << (from & 63));
  while (bits == 0) bits = bucket_bits_[++word];
  return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

void Kernel::rebase_from_spill() {
  // Only reached with an empty wheel, so the spill minimum is the global
  // minimum; re-anchor the wheel at its bucket and migrate every spill
  // event that now falls within the horizon. Migration happens strictly
  // before any same-time event is popped, so events that were once far
  // future merge back into the exact (time, priority, seq) order.
  assert(wheel_count_ == 0 && !spill_.empty());
  wheel_base_ = spill_.front().time &
                ~((static_cast<TimePs>(1) << cfg_.bucket_width_log2) - 1);
  cur_bucket_ = 0;
  while (!spill_.empty() && bucket_offset(spill_.front().time) < num_buckets_) {
    std::pop_heap(spill_.begin(), spill_.end(), NodeAfter{});
    wheel_insert(spill_.back());
    spill_.pop_back();
  }
}

void Kernel::settle_min_bucket() {
  assert(size_ > 0);
  for (;;) {
    if (wheel_count_ > 0) {
      // Insertions never land before cur_bucket_ (they are >= now), so the
      // cursor is monotone within one wheel epoch.
      cur_bucket_ = next_occupied_bucket(cur_bucket_);
      return;
    }
    rebase_from_spill();
  }
}

bool Kernel::step_calendar() {
  if (size_ == 0) return false;
  settle_min_bucket();
  auto& b = buckets_[cur_bucket_];
  std::pop_heap(b.begin(), b.end(), NodeAfter{});
  const Node n = b.back();
  b.pop_back();
  if (b.empty())
    bucket_bits_[cur_bucket_ >> 6] &= ~(1ULL << (cur_bucket_ & 63));
  --wheel_count_;
  --size_;
  Entry& e = pool_[n.idx];
  if (!e.daemon) --live_;
  assert(n.time >= now_);
  now_ = n.time;
  ++executed_;
  // Move the callable out before running it: the handler may schedule new
  // events, which can reuse (or grow past) this pool slot.
  EventFn fn = std::move(e.fn);
  release_entry(n.idx);
  fn();
  return true;
}

// ------------------------------------------------------ legacy binary heap

bool Kernel::step_legacy() {
  if (legacy_.empty()) return false;
  // Move out before pop: the handler may schedule new events. (top() is
  // const; the move is safe because pop() destroys the moved-from entry.)
  LegacyEntry e = std::move(const_cast<LegacyEntry&>(legacy_.top()));
  legacy_.pop();
  --size_;
  if (!e.daemon) --live_;
  assert(e.time >= now_);
  now_ = e.time;
  ++executed_;
  e.fn();
  return true;
}

// ------------------------------------------------------------- public API

void Kernel::push(TimePs t, EventFn fn, int priority, bool daemon) {
  if (t < now_)
    throw std::logic_error("Kernel::schedule_at: time travels backwards");
  if (cfg_.policy == QueuePolicy::kBinaryHeap) {
    legacy_.push(LegacyEntry{t, priority, seq_++, std::move(fn), daemon});
  } else {
    const Node n{t, seq_++, priority,
                 acquire_entry(std::move(fn), daemon)};
    // wheel_base_ <= now_ <= t always holds here (the wheel is only ever
    // re-anchored at the next event to pop), so bucket_offset is exact.
    if (bucket_offset(t) < num_buckets_) {
      wheel_insert(n);
    } else {
      spill_.push_back(n);
      std::push_heap(spill_.begin(), spill_.end(), NodeAfter{});
    }
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
  if (cfg_.policy == QueuePolicy::kBinaryHeap) return legacy_.top().time;
  if (wheel_count_ == 0) return spill_.front().time;
  // All buckets before cur_bucket_ are empty and spill events lie beyond
  // the horizon, so the first non-empty bucket's heap front is the global
  // minimum. step() re-finds (and commits) the same bucket.
  return buckets_[next_occupied_bucket(cur_bucket_)].front().time;
}

bool Kernel::step() {
  return cfg_.policy == QueuePolicy::kBinaryHeap ? step_legacy()
                                                 : step_calendar();
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
}

}  // namespace rw::sim
