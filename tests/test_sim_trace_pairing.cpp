// Unit tests for sim::pair_records, the one pairing rule every trace reader
// decodes through, on hand-built traces: one test per encoding's rule, and
// the half-open spans every rule leaves unpaired.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "perf/traceview.hpp"
#include "sim/trace.hpp"

namespace rw::sim {
namespace {

constexpr std::size_t kNone = kNoPartner;

TraceEvent rec(TimePs t, TraceKind kind, std::uint32_t core,
               std::string label, std::uint64_t a = 0, std::uint64_t b = 0) {
  return TraceEvent{t, kind, CoreId{core}, std::move(label), a, b};
}

TEST(TracePairing, EmptyTraceHasNoPairs) {
  EXPECT_TRUE(pair_records({}).empty());
}

TEST(TracePairing, ComputeBlocksPairPerCore) {
  // Two cores interleave; each end closes its own core's block.
  const std::vector<TraceEvent> t = {
      rec(0, TraceKind::kComputeStart, 0, "a"),
      rec(0, TraceKind::kComputeStart, 1, "b"),
      rec(5, TraceKind::kComputeEnd, 1, "b"),
      rec(7, TraceKind::kComputeEnd, 0, "a"),
  };
  EXPECT_EQ(pair_records(t), (std::vector<std::size_t>{3, 2, 1, 0}));
}

TEST(TracePairing, NewerComputeStartReplacesAbandonedBlock) {
  // A crash abandons the first block; the re-issued block replaces it.
  const std::vector<TraceEvent> t = {
      rec(0, TraceKind::kComputeStart, 0, "blk"),
      rec(5, TraceKind::kCustom, 0, "fault.core_crash"),
      rec(8, TraceKind::kComputeStart, 0, "blk"),
      rec(22, TraceKind::kComputeEnd, 0, "blk"),
  };
  EXPECT_EQ(pair_records(t), (std::vector<std::size_t>{kNone, kNone, 3, 2}));
}

TEST(TracePairing, ComputeEndWithOtherLabelLeavesBlockOpen) {
  const std::vector<TraceEvent> t = {
      rec(0, TraceKind::kComputeStart, 0, "fir"),
      rec(3, TraceKind::kComputeEnd, 0, "iir"),  // stale: not the open block
      rec(4, TraceKind::kComputeEnd, 0, "fir"),
  };
  EXPECT_EQ(pair_records(t), (std::vector<std::size_t>{2, kNone, 0}));
}

TEST(TracePairing, OrphanComputeEndStaysUnpaired) {
  // Tracing switched on while a block was in flight: its end has no start,
  // and neither the end nor the next block is disturbed by it.
  const std::vector<TraceEvent> t = {
      rec(10, TraceKind::kComputeEnd, 0, "fir"),
      rec(15, TraceKind::kComputeStart, 0, "fir"),
      rec(25, TraceKind::kComputeEnd, 0, "fir"),
      rec(26, TraceKind::kComputeEnd, 0, "fir"),  // already closed
  };
  EXPECT_EQ(pair_records(t), (std::vector<std::size_t>{kNone, 2, 1, kNone}));
}

TEST(TracePairing, ComputeRecordsWithoutCoreNeverPair) {
  const std::vector<TraceEvent> t = {
      TraceEvent{0, TraceKind::kComputeStart, CoreId{}, "x", 0, 0},
      TraceEvent{1, TraceKind::kComputeEnd, CoreId{}, "x", 0, 0},
  };
  EXPECT_EQ(pair_records(t), (std::vector<std::size_t>{kNone, kNone}));
}

TEST(TracePairing, TasksPairOnTaskIndex) {
  // Ends arrive out of start order and on another label; `a` decides.
  const std::vector<TraceEvent> t = {
      rec(0, TraceKind::kTaskStart, 0, "src", 1),
      rec(0, TraceKind::kTaskStart, 1, "dst", 2),
      rec(4, TraceKind::kTaskEnd, 1, "dst", 2),
      rec(6, TraceKind::kTaskEnd, 0, "renamed", 1),
      rec(7, TraceKind::kTaskEnd, 0, "src", 3),  // no task 3 started
  };
  EXPECT_EQ(pair_records(t), (std::vector<std::size_t>{3, 2, 1, 0, kNone}));
}

TEST(TracePairing, NewerTaskStartReplacesOlder) {
  const std::vector<TraceEvent> t = {
      rec(0, TraceKind::kTaskStart, 0, "t", 4),
      rec(2, TraceKind::kTaskStart, 1, "t", 4),
      rec(9, TraceKind::kTaskEnd, 1, "t", 4),
  };
  EXPECT_EQ(pair_records(t), (std::vector<std::size_t>{kNone, 2, 1}));
}

TEST(TracePairing, MessagesPairFifoPerKey) {
  // One edge (0 -> 1) transfers three times; a second edge interleaves.
  const std::uint64_t edge = (0ULL << 32) | 1ULL;
  const std::uint64_t other = (2ULL << 32) | 3ULL;
  const std::vector<TraceEvent> t = {
      rec(0, TraceKind::kMsgSend, 0, "e", edge, 8),   // 0
      rec(1, TraceKind::kMsgSend, 0, "e", edge, 8),   // 1
      rec(2, TraceKind::kMsgSend, 2, "f", other, 4),  // 2
      rec(3, TraceKind::kMsgRecv, 1, "e", edge, 8),   // 3 -> 0
      rec(4, TraceKind::kMsgSend, 0, "e", edge, 8),   // 4
      rec(5, TraceKind::kMsgRecv, 3, "f", other, 4),  // 5 -> 2
      rec(6, TraceKind::kMsgRecv, 1, "e", edge, 8),   // 6 -> 1
      rec(7, TraceKind::kMsgRecv, 1, "e", edge, 8),   // 7 -> 4
      rec(8, TraceKind::kMsgRecv, 1, "e", edge, 8),   // 8: nothing queued
  };
  EXPECT_EQ(pair_records(t),
            (std::vector<std::size_t>{3, 6, 5, 0, 7, 2, 1, 4, kNone}));
}

TEST(TracePairing, DmaPairsFifo) {
  const std::vector<TraceEvent> t = {
      TraceEvent{0, TraceKind::kDmaEnd, CoreId{}, "dma", 0, 64},    // orphan
      TraceEvent{1, TraceKind::kDmaStart, CoreId{}, "dma", 0, 64},  // 1
      TraceEvent{2, TraceKind::kDmaStart, CoreId{}, "dma", 0, 32},  // 2
      TraceEvent{5, TraceKind::kDmaEnd, CoreId{}, "dma", 0, 64},    // -> 1
      TraceEvent{9, TraceKind::kDmaEnd, CoreId{}, "dma", 0, 32},    // -> 2
  };
  EXPECT_EQ(pair_records(t), (std::vector<std::size_t>{kNone, 3, 4, 1, 2}));
}

TEST(TracePairing, OtherKindsNeverPair) {
  const std::vector<TraceEvent> t = {
      rec(0, TraceKind::kMemRead, 0, "m", 0x100, 4),
      rec(1, TraceKind::kIrqRaise, 0, "irq", 2),
      rec(2, TraceKind::kIrqAck, 0, "irq", 2),
      rec(3, TraceKind::kCustom, 0, "note"),
  };
  EXPECT_EQ(pair_records(t), std::vector<std::size_t>(4, kNone));
}

// Half-open spans of every kind — the trace ends before their close —
// stay unpaired, and TraceView builds no span for them.
TEST(TracePairing, HalfOpenSpansOfEveryKindAreDropped) {
  const std::vector<TraceEvent> t = {
      rec(0, TraceKind::kTaskStart, 0, "t", 1, 100),
      rec(0, TraceKind::kComputeStart, 1, "blk", 50),
      rec(1, TraceKind::kMsgSend, 0, "e", (1ULL << 32) | 2ULL, 16),
      TraceEvent{2, TraceKind::kDmaStart, CoreId{}, "dma", 0, 64},
      // One closed span per kind after the open ones, so every rule runs.
      rec(3, TraceKind::kTaskStart, 2, "u", 7, 10),
      rec(4, TraceKind::kTaskEnd, 2, "u", 7, 12),
      rec(5, TraceKind::kMsgSend, 2, "g", (7ULL << 32) | 8ULL, 4),
      rec(6, TraceKind::kMsgRecv, 3, "g", (7ULL << 32) | 8ULL, 4),
  };
  const std::vector<std::size_t> partner = pair_records(t);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(partner[i], kNone) << i;

  const perf::TraceView v = perf::TraceView::from_events(t);
  EXPECT_EQ(v.total_events(), t.size());
  ASSERT_EQ(v.computes().size(), 1u);
  EXPECT_EQ(v.computes()[0].seq, 4u);
  EXPECT_EQ(v.computes()[0].task, 7u);
  EXPECT_EQ(v.computes()[0].cycles, 10u);
  EXPECT_EQ(v.computes()[0].ref_cycles, 12u);
  ASSERT_EQ(v.transfers().size(), 1u);
  EXPECT_EQ(v.transfers()[0].seq, 6u);
  EXPECT_EQ(v.transfers()[0].src_task, 7u);
  EXPECT_EQ(v.transfers()[0].dst_task, 8u);
  EXPECT_EQ(v.transfers()[0].dst_core, CoreId{3});
  EXPECT_TRUE(v.dmas().empty());
  EXPECT_EQ(v.consumed_events(), 4u);
  EXPECT_EQ(v.makespan(), 6u);
}

}  // namespace
}  // namespace rw::sim
