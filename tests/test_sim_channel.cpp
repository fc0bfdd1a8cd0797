#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/process.hpp"

namespace rw::sim {
namespace {

Process producer(Kernel& k, Channel<int>& ch, int n, DurationPs pace) {
  for (int i = 0; i < n; ++i) {
    if (pace) co_await delay(k, pace);
    co_await ch.send(i);
  }
}

Process consumer(Kernel& k, Channel<int>& ch, int n, DurationPs pace,
                 std::vector<int>& out) {
  for (int i = 0; i < n; ++i) {
    if (pace) co_await delay(k, pace);
    out.push_back(co_await ch.recv());
  }
}

TEST(Channel, DeliversInOrder) {
  Kernel k;
  Channel<int> ch(k, 4);
  std::vector<int> out;
  spawn(k, producer(k, ch, 10, 0));
  spawn(k, consumer(k, ch, 10, 0, out));
  k.run();
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(Channel, SlowConsumerBackPressuresProducer) {
  Kernel k;
  Channel<int> ch(k, 2);
  std::vector<int> out;
  spawn(k, producer(k, ch, 10, /*pace=*/0));
  spawn(k, consumer(k, ch, 10, /*pace=*/100, out));
  k.run();
  EXPECT_EQ(out.size(), 10u);
  // Producer cannot have run ahead more than capacity + one in-flight recv.
  EXPECT_EQ(k.now(), 1000u);
}

TEST(Channel, SlowProducerBlocksConsumer) {
  Kernel k;
  Channel<int> ch(k, 4);
  std::vector<int> out;
  spawn(k, producer(k, ch, 5, /*pace=*/200));
  spawn(k, consumer(k, ch, 5, /*pace=*/0, out));
  k.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(k.now(), 1000u);  // gated by the producer
}

TEST(Channel, TrySendRespectsCapacity) {
  Kernel k;
  Channel<int> ch(k, 2);
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_TRUE(ch.try_send(2));
  EXPECT_TRUE(ch.full());
  EXPECT_FALSE(ch.try_send(3));
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, TryRecvDrains) {
  Kernel k;
  Channel<int> ch(k, 4);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.try_send(7);
  ch.try_send(8);
  EXPECT_EQ(ch.try_recv().value(), 7);
  EXPECT_EQ(ch.try_recv().value(), 8);
  EXPECT_FALSE(ch.try_recv().has_value());
}

TEST(Channel, CountsTraffic) {
  Kernel k;
  Channel<int> ch(k, 8);
  std::vector<int> out;
  spawn(k, producer(k, ch, 6, 10));
  spawn(k, consumer(k, ch, 6, 0, out));
  k.run();
  EXPECT_EQ(ch.total_sent(), 6u);
  EXPECT_EQ(ch.total_received(), 6u);
  EXPECT_TRUE(ch.empty());
}

Process sender_once(Channel<int>& ch, int v) { co_await ch.send(v); }

TEST(Channel, DirectHandoffToBlockedReceiver) {
  Kernel k;
  Channel<int> ch(k, 1);
  std::vector<int> out;
  spawn(k, consumer(k, ch, 1, 0, out));
  k.run();  // consumer blocks on empty channel
  spawn(k, sender_once(ch, 42));
  k.run();
  EXPECT_EQ(out, (std::vector<int>{42}));
}

TEST(Channel, ManyToOneFairness) {
  Kernel k;
  Channel<int> ch(k, 1);
  std::vector<int> out;
  spawn(k, producer(k, ch, 5, 10));
  spawn(k, producer(k, ch, 5, 10));
  spawn(k, consumer(k, ch, 10, 0, out));
  k.run();
  EXPECT_EQ(out.size(), 10u);
  // All values delivered exactly twice (two identical producers).
  for (int v = 0; v < 5; ++v)
    EXPECT_EQ(std::count(out.begin(), out.end(), v), 2);
}

TEST(Channel, MoveOnlyPayload) {
  Kernel k;
  Channel<std::unique_ptr<int>> ch(k, 2);
  EXPECT_TRUE(ch.try_send(std::make_unique<int>(5)));
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(Fifo, GrowsAcrossTheWrapAndErasesInOrder) {
  Fifo<int> f;
  EXPECT_TRUE(f.empty());
  for (int v = 0; v < 3; ++v) f.push_back(v);
  f.pop_front();
  f.pop_front();  // head now sits mid-ring
  for (int v = 3; v < 9; ++v) f.push_back(v);  // wraps, then doubles
  f.erase(5);
  f.erase(42);  // absent: no change
  std::vector<int> out;
  for (; !f.empty(); f.pop_front()) out.push_back(f.front());
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4, 6, 7, 8}));
}

}  // namespace
}  // namespace rw::sim
