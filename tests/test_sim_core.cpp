#include "sim/core.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/process.hpp"

namespace rw::sim {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  Kernel kernel;
  Tracer tracer;
};

TEST_F(CoreTest, ReserveComputesDurationFromFrequency) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  auto [start, finish] = c.reserve(1000);
  EXPECT_EQ(start, 0u);
  EXPECT_EQ(finish, 1'000'000u);  // 1000 cycles at 1 GHz = 1 us
}

TEST_F(CoreTest, BackToBackWorkSerializes) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  auto [s1, f1] = c.reserve(100);
  auto [s2, f2] = c.reserve(100);
  EXPECT_EQ(s2, f1);
  EXPECT_EQ(f2, 200'000u);
}

TEST_F(CoreTest, ReserveFromHonoursEarliest) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  auto [s, f] = c.reserve_from(5000, 10);
  EXPECT_EQ(s, 5000u);
  EXPECT_EQ(f, 15000u);
}

TEST_F(CoreTest, DvfsChangesFutureWorkRate) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  auto [s1, f1] = c.reserve(1000);
  c.set_frequency(ghz(2));
  auto [s2, f2] = c.reserve(1000);
  EXPECT_EQ(f1 - s1, 1'000'000u);
  EXPECT_EQ(f2 - s2, 500'000u);
  EXPECT_EQ(c.frequency(), ghz(2));
  EXPECT_EQ(c.nominal_frequency(), ghz(1));
}

TEST_F(CoreTest, DvfsTracedAsFreqChange) {
  tracer.set_enabled(true);
  Core c(kernel, tracer, CoreId{3}, PeClass::kRisc, ghz(1));
  c.set_frequency(mhz(500));
  c.set_frequency(mhz(500));  // no-op, not traced
  const auto evs = tracer.filter(TraceKind::kFreqChange);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].a, mhz(500));
  EXPECT_EQ(evs[0].b, ghz(1));
  EXPECT_EQ(evs[0].core, CoreId{3});
}

TEST_F(CoreTest, TracksUtilization) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  c.reserve(500);
  EXPECT_EQ(c.cycles_executed(), 500u);
  EXPECT_EQ(c.busy_time(), 500'000u);
  EXPECT_DOUBLE_EQ(c.utilization(1'000'000), 0.5);
}

Process run_compute(Core& core, Cycles cycles, TimePs& done_at) {
  co_await core.compute(cycles, "kernel_fn");
  done_at = core.kernel().now();
}

TEST_F(CoreTest, ComputeAwaitableAdvancesTime) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, mhz(100));
  TimePs done = 0;
  spawn(kernel, run_compute(c, 100, done));
  kernel.run();
  EXPECT_EQ(done, 10'000'000u / 10u);  // 100 cycles at 100 MHz = 1 us
}

TEST_F(CoreTest, TwoProcessesShareOneCoreSerially) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  TimePs done_a = 0, done_b = 0;
  spawn(kernel, run_compute(c, 1000, done_a));
  spawn(kernel, run_compute(c, 1000, done_b));
  kernel.run();
  // One of them finishes at 1us, the other at 2us.
  EXPECT_EQ(std::min(done_a, done_b), 1'000'000u);
  EXPECT_EQ(std::max(done_a, done_b), 2'000'000u);
}

TEST_F(CoreTest, ComputeEmitsStartEndTraces) {
  tracer.set_enabled(true);
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  TimePs done = 0;
  spawn(kernel, run_compute(c, 10, done));
  kernel.run();
  EXPECT_EQ(tracer.filter(TraceKind::kComputeStart).size(), 1u);
  EXPECT_EQ(tracer.filter(TraceKind::kComputeEnd).size(), 1u);
  EXPECT_EQ(tracer.filter(TraceKind::kComputeStart)[0].label, "kernel_fn");
}

TEST_F(CoreTest, RegistersReadablePerDebugger) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kDsp, ghz(1));
  c.set_reg(5, 0xdeadbeef);
  EXPECT_EQ(c.reg(5), 0xdeadbeefu);
  EXPECT_THROW(c.set_reg(Core::kNumRegs, 1), std::out_of_range);
}

TEST_F(CoreTest, PeClassNames) {
  EXPECT_STREQ(pe_class_name(PeClass::kRisc), "RISC");
  EXPECT_STREQ(pe_class_name(PeClass::kDsp), "DSP");
  EXPECT_STREQ(pe_class_name(PeClass::kAsip), "ASIP");
}

// ---------------------------------------------------- derived current_label

Process run_labelled(Core& core, Cycles cycles, std::string label) {
  co_await core.compute(cycles, std::move(label));
}

/// Records core.current_label() at each probe time, at priority 1: after
/// every priority-0 event of that instant, as the profiler's ticks do.
struct LabelProbe {
  std::vector<std::string> seen;
  void at(Kernel& k, TimePs t, const Core& c) {
    k.schedule_at(t, [this, &c] { seen.push_back(c.current_label()); },
                  /*priority=*/1);
  }
};

constexpr TimePs kUs = 1'000'000;  // 1000 cycles at 1 GHz

// The label is derived from the in-flight blocks, so it must not depend
// on whether the (trace-only) ComputeStart events ran.
class CoreLabelTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { tracer.set_enabled(GetParam()); }
  Kernel kernel;
  Tracer tracer;
};

TEST_P(CoreLabelTest, FollowsFifoQueuedBlocks) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  EXPECT_EQ(c.current_label(), "<idle>");
  spawn(kernel, run_labelled(c, 1000, "a"));  // [0, 1us)
  spawn(kernel, run_labelled(c, 2000, "b"));  // queued: [1us, 3us)
  LabelProbe p;
  for (const TimePs t : {TimePs{0}, kUs / 2, kUs, 2 * kUs, 3 * kUs, 4 * kUs})
    p.at(kernel, t, c);
  // A priority-0 reader strictly inside a block sees it too.
  std::string inside;
  kernel.schedule_at(kUs / 2 + 1, [&] { inside = c.current_label(); });
  kernel.run();
  EXPECT_EQ(p.seen, (std::vector<std::string>{"a", "a", "b", "b", "<idle>",
                                               "<idle>"}));
  EXPECT_EQ(inside, "a");
  EXPECT_EQ(tracer.filter(TraceKind::kComputeStart).size(),
            GetParam() ? 2u : 0u);
}

TEST_P(CoreLabelTest, CrashedThenRecoveredBlocksRerunInOrder) {
  Core c(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  spawn(kernel, run_labelled(c, 4000, "a"));  // [0, 4us)
  spawn(kernel, run_labelled(c, 2000, "b"));  // [4us, 6us)
  kernel.schedule_at(kUs, [&] { c.fail(); });
  kernel.schedule_at(2 * kUs, [&] { c.recover(); });  // a [2, 6), b [6, 8)
  LabelProbe p;
  for (const TimePs t : {kUs / 2, kUs, kUs + kUs / 2, 2 * kUs, 5 * kUs,
                         6 * kUs, 7 * kUs, 8 * kUs})
    p.at(kernel, t, c);
  kernel.run();
  EXPECT_EQ(p.seen,
            (std::vector<std::string>{"a", "<crashed>", "<crashed>", "a", "a",
                                      "b", "b", "<idle>"}));
  EXPECT_EQ(c.parked_count(), 0u);
}

TEST_P(CoreLabelTest, MigratedBlockRunsUnderItsLabelOnTheSurvivor) {
  Core c0(kernel, tracer, CoreId{0}, PeClass::kRisc, ghz(1));
  Core c1(kernel, tracer, CoreId{1}, PeClass::kRisc, ghz(1));
  spawn(kernel, run_labelled(c0, 4000, "job"));  // [0, 4us) on c0
  kernel.schedule_at(kUs, [&] {
    c0.fail();
    EXPECT_EQ(c0.migrate_parked(c1), 1u);  // [1us, 5us) on c1
  });
  LabelProbe p0, p1;
  for (const TimePs t : {kUs / 2, kUs, 4 * kUs + kUs / 2, 5 * kUs}) {
    p0.at(kernel, t, c0);
    p1.at(kernel, t, c1);
  }
  kernel.run();
  EXPECT_EQ(p0.seen, (std::vector<std::string>{"job", "<crashed>",
                                                "<crashed>", "<crashed>"}));
  EXPECT_EQ(p1.seen,
            (std::vector<std::string>{"<idle>", "job", "job", "<idle>"}));
}

INSTANTIATE_TEST_SUITE_P(TracedAndUntraced, CoreLabelTest, ::testing::Bool());

}  // namespace
}  // namespace rw::sim
