// Bounded blocking channels between simulation processes.
//
// Channels are the asynchronous-message primitive the paper's Sec. II
// programming model is built on ("de-coupled threads of execution,
// communicating using asynchronous messages") and the inter-task channel
// of the CIC model (Sec. V). send() blocks when the buffer is full — the
// back-pressure that Sec. III's data-driven execution relies on — and
// recv() blocks when it is empty.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"

namespace rw::sim {

/// A FIFO ring that allocates nothing until its first push and then grows
/// by doubling (a std::deque allocates its map and a node when it is
/// built). Slots past the live range hold moved-from values.
template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  T& front() { return slots_[head_]; }

  void push_back(T v) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(v);
    ++count_;
  }
  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }
  /// Remove the first element equal to `v`, keeping the order of the rest.
  void erase(const T& v) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < count_; ++i) {
      if (slots_[(head_ + i) & mask] != v) continue;
      for (std::size_t j = i; j + 1 < count_; ++j)
        slots_[(head_ + j) & mask] = std::move(slots_[(head_ + j + 1) & mask]);
      --count_;
      return;
    }
  }

 private:
  void grow() {
    std::vector<T> next(slots_.empty() ? 4 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // size 0 or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

template <typename T>
class Channel {
 public:
  /// `capacity` is the number of in-flight messages the buffer holds;
  /// it must be at least 1.
  Channel(Kernel& kernel, std::size_t capacity, std::string name = "chan")
      : kernel_(kernel), capacity_(capacity), name_(std::move(name)) {
    assert(capacity_ >= 1);
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  ~Channel() {
    // Parked timed waiters may outlive the channel (their frames are
    // destroyed later, e.g. at kernel teardown); clear their armed slots
    // so ~RecvForAwaitable/~SendForAwaitable don't call back into a dead
    // channel.
    for (TimedEntry& e : timed_waiters_) *e.armed_slot = nullptr;
  }

  struct SendAwaitable {
    Channel& ch;
    T value;
    std::coroutine_handle<> handle{};

    bool await_ready() { return ch.offer(value); }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.send_waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };

  struct RecvAwaitable {
    Channel& ch;
    std::optional<T> value{};
    std::coroutine_handle<> handle{};

    bool await_ready() { return ch.take(value); }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.recv_waiters_.push_back(this);
    }
    T await_resume() {
      assert(value.has_value());
      return std::move(*value);
    }
  };

  /// Timeout-bounded variants (rw::fault detection primitives). They park
  /// like send()/recv() but additionally arm a kernel event at now+timeout;
  /// whichever fires first in kernel event order — delivery or deadline —
  /// wins, so a tie at the exact deadline is broken deterministically by
  /// the kernel's (time, priority, seq) total order, not by wall clock.
  /// On expiry the awaitable un-parks and resolves to "no value" (an
  /// empty optional, or false for a send), which is what lets a process
  /// survive a peer that crashed or was destroyed.
  struct RecvForAwaitable : RecvAwaitable {
    DurationPs timeout;
    bool timed_out = false;

    RecvForAwaitable(Channel& c, DurationPs t)
        : RecvAwaitable{c}, timeout(t) {}
    RecvForAwaitable(const RecvForAwaitable&) = delete;
    RecvForAwaitable& operator=(const RecvForAwaitable&) = delete;
    /// A coroutine destroyed while parked here (e.g. kernel teardown of an
    /// abandoned process, or an owner dropping a suspended process
    /// mid-run) never resumes, so its still-armed deadline event would
    /// otherwise fire against the freed frame. Untracking in the
    /// destructor defuses that event — its (address, gen) lookup fails —
    /// and removes the dangling waiter from the park queue. `armed_` is
    /// non-null exactly while a live registration exists; every resolution
    /// path (delivery, timeout, ~Channel) clears it through the entry's
    /// armed slot.
    ~RecvForAwaitable() {
      if (armed_ != nullptr) {
        Channel& c = *armed_;
        c.untrack_timed(this);
        c.recv_waiters_.erase(static_cast<RecvAwaitable*>(this));
      }
    }

    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      Channel& c = this->ch;
      c.recv_waiters_.push_back(this);
      const std::uint64_t gen = c.track_timed(this, &armed_);
      RecvForAwaitable* self = this;
      Channel* chp = &c;
      c.kernel_.schedule_in(
          timeout, [chp, self, gen] { chp->on_recv_timeout(self, gen); });
    }
    /// The message, or nothing when the deadline won.
    std::optional<T> await_resume() {
      if (timed_out) return std::nullopt;
      assert(this->value.has_value());
      return std::move(this->value);
    }

   private:
    Channel* armed_ = nullptr;  // owning channel while registration is live
  };

  struct SendForAwaitable : SendAwaitable {
    DurationPs timeout;
    bool timed_out = false;

    SendForAwaitable(Channel& c, T v, DurationPs t)
        : SendAwaitable{c, std::move(v)}, timeout(t) {}
    SendForAwaitable(const SendForAwaitable&) = delete;
    SendForAwaitable& operator=(const SendForAwaitable&) = delete;
    /// See ~RecvForAwaitable(): defuse the deadline of a waiter destroyed
    /// without ever resuming.
    ~SendForAwaitable() {
      if (armed_ != nullptr) {
        Channel& c = *armed_;
        c.untrack_timed(this);
        c.send_waiters_.erase(static_cast<SendAwaitable*>(this));
      }
    }

    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      Channel& c = this->ch;
      c.send_waiters_.push_back(this);
      const std::uint64_t gen = c.track_timed(this, &armed_);
      SendForAwaitable* self = this;
      Channel* chp = &c;
      c.kernel_.schedule_in(
          timeout, [chp, self, gen] { chp->on_send_timeout(self, gen); });
    }
    /// True when the message was accepted, false when the deadline won.
    bool await_resume() const { return !timed_out; }

   private:
    Channel* armed_ = nullptr;  // owning channel while registration is live
  };

  /// co_await ch.send(v): enqueue v, blocking while the buffer is full.
  [[nodiscard]] SendAwaitable send(T value) {
    return SendAwaitable{*this, std::move(value)};
  }

  /// co_await ch.recv(): dequeue the oldest message, blocking while empty.
  [[nodiscard]] RecvAwaitable recv() { return RecvAwaitable{*this}; }

  /// co_await ch.recv_for(d): as recv(), but resolves to std::nullopt
  /// instead of blocking past `d`.
  [[nodiscard]] RecvForAwaitable recv_for(DurationPs timeout) {
    return RecvForAwaitable(*this, timeout);
  }

  /// co_await ch.send_for(v, d): as send(), but gives up (dropping the
  /// message) and resolves to false instead of blocking past `d`.
  [[nodiscard]] SendForAwaitable send_for(T value, DurationPs timeout) {
    return SendForAwaitable(*this, std::move(value), timeout);
  }

  /// Non-blocking probes (used by schedulers and the data-driven executor).
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] bool empty() const { return buffer_.empty(); }
  [[nodiscard]] bool full() const { return buffer_.size() >= capacity_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }
  [[nodiscard]] std::uint64_t total_received() const {
    return total_received_;
  }

  /// Non-blocking send; returns false if it would have blocked.
  bool try_send(T value) { return offer(value); }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    std::optional<T> v;
    take(v);
    return v;
  }

 private:
  friend struct SendAwaitable;
  friend struct RecvAwaitable;
  friend struct RecvForAwaitable;
  friend struct SendForAwaitable;

  /// The one non-blocking send path (send() and try_send()): hand `value`
  /// to a blocked receiver, else buffer it. Returns false, leaving `value`
  /// untouched, when the send would block.
  bool offer(T& value) {
    if (try_deliver_direct(value)) return true;
    if (buffer_.size() >= capacity_) return false;
    buffer_.push_back(std::move(value));
    ++total_sent_;
    return true;
  }

  /// The one non-blocking receive path (recv() and try_recv()): move the
  /// oldest buffered message into `out` and let one blocked sender refill
  /// the freed slot. Returns false when the buffer is empty.
  bool take(std::optional<T>& out) {
    if (buffer_.empty()) return false;
    out = std::move(buffer_.front());
    buffer_.pop_front();
    ++total_received_;
    refill_from_sender();
    return true;
  }

  /// Hand `value` straight to a blocked receiver, if any. Returns true when
  /// delivered. The receiver is resumed via a kernel event at the current
  /// time so that send() is never re-entered by receiver code.
  bool try_deliver_direct(T& value) {
    if (recv_waiters_.empty()) return false;
    RecvAwaitable* waiter = recv_waiters_.front();
    recv_waiters_.pop_front();
    untrack_timed(waiter);  // delivery beat the deadline: defuse the timeout
    waiter->value = std::move(value);
    ++total_sent_;
    ++total_received_;
    auto h = waiter->handle;
    kernel_.schedule_at(kernel_.now(), [h] {
      if (!h.done()) h.resume();
    });
    return true;
  }

  /// After a buffer slot frees up, move one blocked sender's message in.
  void refill_from_sender() {
    if (send_waiters_.empty() || buffer_.size() >= capacity_) return;
    SendAwaitable* waiter = send_waiters_.front();
    send_waiters_.pop_front();
    untrack_timed(waiter);
    buffer_.push_back(std::move(waiter->value));
    ++total_sent_;
    auto h = waiter->handle;
    kernel_.schedule_at(kernel_.now(), [h] {
      if (!h.done()) h.resume();
    });
  }

  /// Register a timed waiter and return its registration generation.
  /// Generations disambiguate address reuse: a retry loop re-awaits a new
  /// timed awaitable at the same frame address, so a *stale* timeout event
  /// (whose waiter was resumed by delivery and whose entry was untracked)
  /// must not match the successor that now lives at that address.
  /// `armed_slot` is the waiter's back-pointer to this channel: set here,
  /// cleared by whichever path retires the registration, so the waiter's
  /// destructor knows whether it still must untrack itself.
  std::uint64_t track_timed(const void* p, Channel** armed_slot) {
    const std::uint64_t gen = ++timed_gen_;
    *armed_slot = this;
    timed_waiters_.push_back({p, gen, armed_slot});
    return gen;
  }

  /// Stop tracking a timed waiter by address (delivery paths; at most one
  /// *live* registration per address can exist). Returns false when `p`
  /// was never timed or its deadline already resolved.
  bool untrack_timed(const void* p) {
    auto it = std::find_if(timed_waiters_.begin(), timed_waiters_.end(),
                           [p](const TimedEntry& e) { return e.waiter == p; });
    if (it == timed_waiters_.end()) return false;
    *it->armed_slot = nullptr;
    timed_waiters_.erase(it);
    return true;
  }

  /// As above, but from a timeout event: both address and generation must
  /// match, so stale deadlines never touch (or forge a timeout for) a
  /// successor awaitable reusing the address.
  bool untrack_timed(const void* p, std::uint64_t gen) {
    auto it = std::find_if(timed_waiters_.begin(), timed_waiters_.end(),
                           [p, gen](const TimedEntry& e) {
                             return e.waiter == p && e.gen == gen;
                           });
    if (it == timed_waiters_.end()) return false;
    *it->armed_slot = nullptr;
    timed_waiters_.erase(it);
    return true;
  }

  void on_recv_timeout(RecvForAwaitable* self, std::uint64_t gen) {
    if (!untrack_timed(self, gen)) return;  // delivered before the deadline
    recv_waiters_.erase(static_cast<RecvAwaitable*>(self));
    self->timed_out = true;
    self->handle.resume();  // already inside a kernel event
  }

  void on_send_timeout(SendForAwaitable* self, std::uint64_t gen) {
    if (!untrack_timed(self, gen)) return;
    send_waiters_.erase(static_cast<SendAwaitable*>(self));
    self->timed_out = true;
    self->handle.resume();
  }

  Kernel& kernel_;
  std::size_t capacity_;
  std::string name_;
  Fifo<T> buffer_;
  struct TimedEntry {
    const void* waiter;
    std::uint64_t gen;
    Channel** armed_slot;  // the waiter's `armed_` member, see track_timed()
  };

  Fifo<SendAwaitable*> send_waiters_;
  Fifo<RecvAwaitable*> recv_waiters_;
  std::vector<TimedEntry> timed_waiters_;
  std::uint64_t timed_gen_ = 0;
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_received_ = 0;
};

}  // namespace rw::sim
