// Channel send_for/recv_for edge cases: silent peers, exact-deadline
// ties, destroyed peers, and the stale-deadline/address-reuse regression
// (a timeout event outliving its awaitable must never forge a timeout
// for a successor awaitable at the same frame address).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/kernel.hpp"
#include "sim/process.hpp"

namespace rw::sim {
namespace {

using Chan = Channel<int>;

Process recv_once(Kernel& k, Chan& ch, DurationPs timeout,
                  std::vector<std::string>& log) {
  auto r = co_await ch.recv_for(timeout);
  if (r.has_value())
    log.push_back("recv:" + std::to_string(r.value()) + "@" +
                  std::to_string(k.now()));
  else
    log.push_back("timeout@" + std::to_string(k.now()));
}

Process send_later(Kernel& k, Chan& ch, int v, TimePs at) {
  co_await delay(k, at - k.now());
  co_await ch.send(v);
}

TEST(ChannelTimeout, RecvTimesOutOnSilentChannel) {
  Kernel k;
  Chan ch(k, 2, "silent");
  std::vector<std::string> log;
  spawn(k, recv_once(k, ch, microseconds(5), log));
  k.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "timeout@" + std::to_string(microseconds(5)));
  EXPECT_EQ(k.now(), microseconds(5));
  EXPECT_EQ(ch.total_received(), 0u);
}

TEST(ChannelTimeout, DeliveryBeforeDeadlineDefusesTimeout) {
  Kernel k;
  Chan ch(k, 2, "fast");
  std::vector<std::string> log;
  spawn(k, recv_once(k, ch, microseconds(5), log));
  spawn(k, send_later(k, ch, 42, microseconds(2)));
  k.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "recv:42@" + std::to_string(microseconds(2)));
  // The defused deadline event still drains, but must be a no-op: the
  // kernel advances to 5us with nothing further logged.
  EXPECT_EQ(k.now(), microseconds(5));
}

// A tie at the exact deadline: data arrives at t == now + timeout. Both
// the delivery event and the deadline event carry the same timestamp, so
// the kernel's (time, priority, seq) order decides — deterministically.
// The deadline event is scheduled at await_suspend (recv at t=0); the
// delivery event is scheduled by the sender at t=5us. Same time, lower
// seq wins: the deadline fires first, so the tie resolves to timeout.
TEST(ChannelTimeout, ExactDeadlineTieIsDeterministicallyTimeout) {
  auto run = [] {
    Kernel k;
    Chan ch(k, 2, "tie");
    std::vector<std::string> log;
    spawn(k, recv_once(k, ch, microseconds(5), log));
    spawn(k, send_later(k, ch, 7, microseconds(5)));
    k.run();
    return log;
  };
  const std::vector<std::string> a = run();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], "timeout@" + std::to_string(microseconds(5)));
  EXPECT_EQ(a, run());  // identical on rerun: no hidden nondeterminism
}

// Flip the tie: if the waiter parks *after* the message's delivery event
// is already scheduled... impossible for a recv (delivery requires a
// parked waiter), so probe the send side instead: a send_for on a full
// channel whose receiver frees a slot exactly at the deadline. The slot
// free-up (refill_from_sender) runs inside the receiver's resume event,
// scheduled at 5us *after* the sender's deadline event (seq order), so
// the deadline wins again — and the message is dropped.
Process recv_at(Kernel& k, Chan& ch, TimePs at, std::vector<int>& got) {
  co_await delay(k, at - k.now());
  got.push_back(co_await ch.recv());
}

Process send_for_once(Kernel& k, Chan& ch, int v, DurationPs timeout,
                      std::vector<std::string>& log) {
  const bool sent = co_await ch.send_for(v, timeout);
  log.push_back((sent ? std::string("sent@") : std::string("drop@")) +
                std::to_string(k.now()));
}

TEST(ChannelTimeout, SendForExactDeadlineTieDropsTheMessage) {
  Kernel k;
  Chan ch(k, 1, "full");
  std::vector<std::string> log;
  std::vector<int> got;
  ASSERT_TRUE(ch.try_send(1));  // fill the single slot
  spawn(k, send_for_once(k, ch, 2, microseconds(5), log));
  spawn(k, recv_at(k, ch, microseconds(5), got));
  k.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "drop@" + std::to_string(microseconds(5)));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 1);          // the buffered message, not the dropped one
  EXPECT_EQ(ch.total_sent(), 1u);
}

// Regression for the address-reuse bug: a retry loop's successive timed
// awaitables occupy the same coroutine-frame address. The first recv's
// deadline event (10us) outlives it (delivery at 5us). When that stale
// event fires, the second recv_for is parked at the *same address* — the
// stale event must not forge a timeout for it; real data at 12us must
// arrive normally.
Process recv_twice_with_reuse(Kernel& k, Chan& ch,
                              std::vector<std::string>& log) {
  for (int i = 0; i < 2; ++i) {
    auto r = co_await ch.recv_for(microseconds(10));
    if (r.has_value())
      log.push_back("recv:" + std::to_string(r.value()) + "@" +
                    std::to_string(k.now()));
    else
      log.push_back("timeout@" + std::to_string(k.now()));
  }
}

TEST(ChannelTimeout, StaleDeadlineNeverForgesTimeoutForSuccessor) {
  Kernel k;
  Chan ch(k, 2, "reuse");
  std::vector<std::string> log;
  spawn(k, recv_twice_with_reuse(k, ch, log));
  spawn(k, send_later(k, ch, 1, microseconds(5)));
  spawn(k, send_later(k, ch, 2, microseconds(12)));
  k.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "recv:1@" + std::to_string(microseconds(5)));
  // Before the generation-tag fix this read "timeout@10000000": the first
  // recv's stale deadline matched the second recv's registration by
  // address and resumed it with a forged timeout.
  EXPECT_EQ(log[1], "recv:2@" + std::to_string(microseconds(12)));
}

// Peer destroyed without ever being spawned: the receiver waits on a
// channel nobody will ever write. recv_for is precisely the survival
// mechanism — it must resolve to an error instead of hanging the sim.
TEST(ChannelTimeout, RecvSurvivesDestroyedPeer) {
  Kernel k;
  Chan ch(k, 2, "orphan");
  std::vector<std::string> log;
  {
    // Created and destroyed without spawn(): the would-be producer's
    // frame is gone before the kernel ever runs.
    Process dead_peer = send_later(k, ch, 99, microseconds(1));
  }
  spawn(k, recv_once(k, ch, microseconds(8), log));
  k.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "timeout@" + std::to_string(microseconds(8)));
  EXPECT_EQ(ch.total_sent(), 0u);
}

// A stale deadline firing after the waiter's whole coroutine finished
// must be a no-op (exercised under ASan in CI: any dangling-pointer
// dereference in the timeout path would trip it).
TEST(ChannelTimeout, StaleDeadlineAfterWaiterFinishedIsNoOp) {
  Kernel k;
  Chan ch(k, 2, "done");
  std::vector<std::string> log;
  spawn(k, recv_once(k, ch, microseconds(20), log));
  spawn(k, send_later(k, ch, 5, microseconds(1)));
  k.run();  // drains the stale 20us deadline long after the frame finished
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "recv:5@" + std::to_string(microseconds(1)));
  EXPECT_EQ(k.now(), microseconds(20));
}

// A coroutine destroyed *while parked* in recv_for (suspended, never
// resumed) leaves an armed deadline event behind. The awaitable's
// destructor must untrack the registration and unpark the waiter, so the
// deadline later drains as a no-op instead of resuming a freed frame
// (exercised under ASan in CI).
Process recv_never_resumed(Chan& ch, std::vector<std::string>& log) {
  auto r = co_await ch.recv_for(microseconds(10));
  log.push_back(r.has_value() ? "recv" : "timeout");  // must never run
}

TEST(ChannelTimeout, DeadlineOfWaiterDestroyedMidRunIsDefused) {
  Kernel k;
  Chan ch(k, 2, "doomed");
  std::vector<std::string> log;
  Process p = recv_never_resumed(ch, log);
  auto h = p.release();
  h.resume();  // runs to the recv_for suspension; deadline armed at 10us
  h.destroy();  // mid-run destruction of the suspended waiter
  k.run();  // the 10us deadline drains without touching the freed frame
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(k.now(), microseconds(10));
}

// The reverse teardown order: the channel dies before the parked waiter's
// frame does. The channel clears the waiter's armed slot on destruction,
// so the frame's later destructor must not call back into the dead
// channel.
TEST(ChannelTimeout, ChannelDestroyedBeforeParkedWaiterFrameIsSafe) {
  Kernel k;
  auto ch = std::make_unique<Chan>(k, 1, "short-lived");
  std::vector<std::string> log;
  Process p = recv_never_resumed(*ch, log);
  auto h = p.release();
  h.resume();   // parked with an armed deadline
  ch.reset();   // channel gone first
  h.destroy();  // frame destructor: must be a no-op w.r.t. the channel
  EXPECT_TRUE(log.empty());
}

// Same for the send side: a sender parked on a full channel and then
// destroyed must defuse its deadline and leave the waiter queue.
Process send_never_resumed(Chan& ch, std::vector<std::string>& log) {
  const bool sent = co_await ch.send_for(7, microseconds(10));
  log.push_back(sent ? "sent" : "drop");  // must never run
}

TEST(ChannelTimeout, SendDeadlineOfDestroyedWaiterIsDefused) {
  Kernel k;
  Chan ch(k, 1, "full-doomed");
  ASSERT_TRUE(ch.try_send(1));  // fill the single slot so send_for parks
  std::vector<std::string> log;
  Process p = send_never_resumed(ch, log);
  auto h = p.release();
  h.resume();
  h.destroy();
  k.run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(ch.total_sent(), 1u);  // the parked message died with its frame
  EXPECT_EQ(k.now(), microseconds(10));
}

}  // namespace
}  // namespace rw::sim
