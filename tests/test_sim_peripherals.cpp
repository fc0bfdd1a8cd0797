#include "sim/peripherals.hpp"

#include <gtest/gtest.h>

#include "sim/interconnect.hpp"
#include "sim_run_to.hpp"

namespace rw::sim {
namespace {

class PeriphTest : public ::testing::Test {
 protected:
  Kernel kernel;
  ObserverList observers;
  Tracer tracer{observers};
  InterruptController irqc{kernel, tracer};
};

TEST_F(PeriphTest, IrqDispatchesHandler) {
  int fired = -1;
  irqc.set_handler(3, [&](std::size_t line) { fired = static_cast<int>(line); });
  irqc.raise(3);
  EXPECT_EQ(fired, -1);  // dispatch is an event, not re-entrant
  kernel.run();
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(irqc.is_pending(3));
  irqc.ack(3);
  EXPECT_FALSE(irqc.is_pending(3));
}

TEST_F(PeriphTest, MaskedIrqStaysPendingAndFiresOnUnmask) {
  // The Sec. VII "wrongly masked interrupt" scenario.
  int fires = 0;
  irqc.set_handler(5, [&](std::size_t) { ++fires; });
  irqc.set_masked(5, true);
  irqc.raise(5);
  kernel.run();
  EXPECT_EQ(fires, 0);
  EXPECT_TRUE(irqc.is_pending(5));
  EXPECT_TRUE(irqc.line_signal(5).level());  // visible on the wire!
  irqc.set_masked(5, false);
  kernel.run();
  EXPECT_EQ(fires, 1);
}

TEST_F(PeriphTest, LineSignalObservable) {
  struct RiseWatch final : Observer {
    void on_signal(const Signal& s, bool old) override {
      if (&s == line) saw_rise = !old && s.level();
    }
    const Signal* line = nullptr;
    bool saw_rise = false;
  } watch;
  watch.line = &irqc.line_signal(2);
  observers.attach(watch);
  irqc.raise(2);
  EXPECT_TRUE(watch.saw_rise);
}

TEST_F(PeriphTest, IrqRegisterFile) {
  irqc.raise(0);
  irqc.raise(4);
  EXPECT_EQ(irqc.read_reg(InterruptController::kRegPending), 0b10001u);
  irqc.write_reg(InterruptController::kRegPending, 0b1);  // W1C
  EXPECT_EQ(irqc.read_reg(InterruptController::kRegPending), 0b10000u);
  irqc.write_reg(InterruptController::kRegMask, 0b100);
  EXPECT_TRUE(irqc.is_masked(2));
  EXPECT_EQ(irqc.read_reg(InterruptController::kRegRaisedCount), 2u);
  EXPECT_THROW(irqc.read_reg(99), std::out_of_range);
}

TEST_F(PeriphTest, TimerPeriodicFires) {
  TimerPeripheral timer(kernel, tracer, irqc, 7);
  int ticks = 0;
  irqc.set_handler(7, [&](std::size_t) {
    ++ticks;
    irqc.ack(7);
  });
  timer.start_periodic(microseconds(10));
  run_to(kernel, microseconds(95));
  EXPECT_EQ(ticks, 9);
  EXPECT_EQ(timer.fire_count(), 9u);
}

TEST_F(PeriphTest, TimerOneshotFiresOnce) {
  TimerPeripheral timer(kernel, tracer, irqc, 7);
  timer.start_oneshot(microseconds(5));
  run_to(kernel, microseconds(100));
  EXPECT_EQ(timer.fire_count(), 1u);
  EXPECT_FALSE(timer.running());
}

TEST_F(PeriphTest, TimerStopCancelsPendingFire) {
  TimerPeripheral timer(kernel, tracer, irqc, 7);
  timer.start_periodic(microseconds(10));
  run_to(kernel, microseconds(25));
  EXPECT_EQ(timer.fire_count(), 2u);
  timer.stop();
  run_to(kernel, microseconds(100));
  EXPECT_EQ(timer.fire_count(), 2u);
}

TEST_F(PeriphTest, TimerRestartInvalidatesOldSchedule) {
  TimerPeripheral timer(kernel, tracer, irqc, 7);
  timer.start_periodic(microseconds(10));
  timer.start_periodic(microseconds(3));
  run_to(kernel, microseconds(10));
  EXPECT_EQ(timer.fire_count(), 3u);  // fires at 3, 6, 9 — not also at 10
}

TEST_F(PeriphTest, TimerRegisterInterface) {
  TimerPeripheral timer(kernel, tracer, irqc, 7);
  timer.write_reg(TimerPeripheral::kRegPeriodPs, microseconds(2));
  timer.write_reg(TimerPeripheral::kRegCtrl, 0b11);  // enable periodic
  EXPECT_TRUE(timer.running());
  run_to(kernel, microseconds(7));
  EXPECT_EQ(timer.read_reg(TimerPeripheral::kRegFireCount), 3u);
  timer.write_reg(TimerPeripheral::kRegCtrl, 0);
  EXPECT_FALSE(timer.running());
}

TEST_F(PeriphTest, TimerRejectsZeroPeriod) {
  TimerPeripheral timer(kernel, tracer, irqc, 7);
  EXPECT_THROW(timer.start_periodic(0), std::invalid_argument);
}

TEST_F(PeriphTest, DmaCopiesAndInterrupts) {
  MemorySystem mem(kernel, tracer);
  mem.add_region("src", 0x0, 256, 1);
  mem.add_region("dst", 0x1000, 256, 1);
  Interconnect bus(kernel, FabricConfig{});
  DmaEngine dma(kernel, tracer, mem, &bus, irqc, 1);

  std::vector<std::uint8_t> payload{9, 8, 7, 6};
  mem.poke(0x10, payload);

  bool irq_seen = false;
  irqc.set_handler(1, [&](std::size_t) { irq_seen = true; });

  bool cb_seen = false;
  dma.start(0x10, 0x1000, 4, [&] { cb_seen = true; });
  EXPECT_TRUE(dma.busy());
  EXPECT_TRUE(dma.busy_signal().level());
  kernel.run();
  EXPECT_FALSE(dma.busy());
  EXPECT_TRUE(cb_seen);
  EXPECT_TRUE(irq_seen);
  std::vector<std::uint8_t> out(4);
  mem.peek(0x1000, out);
  EXPECT_EQ(out, payload);
}

TEST_F(PeriphTest, DmaRejectsConcurrentStart) {
  MemorySystem mem(kernel, tracer);
  mem.add_region("r", 0, 256, 1);
  DmaEngine dma(kernel, tracer, mem, nullptr, irqc, 1);
  dma.start(0, 128, 16);
  EXPECT_THROW(dma.start(0, 128, 16), std::runtime_error);
  kernel.run();
  EXPECT_NO_THROW(dma.start(0, 128, 16));
}

TEST_F(PeriphTest, DmaRegisterKickoff) {
  MemorySystem mem(kernel, tracer);
  mem.add_region("r", 0, 256, 1);
  DmaEngine dma(kernel, tracer, mem, nullptr, irqc, 1);
  std::vector<std::uint8_t> payload{1, 2};
  mem.poke(0, payload);
  dma.write_reg(DmaEngine::kRegSrc, 0);
  dma.write_reg(DmaEngine::kRegDst, 100);
  dma.write_reg(DmaEngine::kRegLen, 2);
  dma.write_reg(DmaEngine::kRegStatus, 1);
  EXPECT_EQ(dma.read_reg(DmaEngine::kRegStatus), 1u);
  kernel.run();
  EXPECT_EQ(dma.read_reg(DmaEngine::kRegStatus), 0u);
  EXPECT_EQ(dma.read_reg(DmaEngine::kRegDoneCount), 1u);
  std::vector<std::uint8_t> out(2);
  mem.peek(100, out);
  EXPECT_EQ(out, payload);
}

TEST_F(PeriphTest, SemaphoreAcquireRelease) {
  HwSemaphores sem(kernel, tracer, 4);
  EXPECT_TRUE(sem.try_acquire(0, CoreId{1}));
  EXPECT_FALSE(sem.try_acquire(0, CoreId{2}));
  EXPECT_TRUE(sem.held(0));
  EXPECT_EQ(sem.holder(0), CoreId{1});
  EXPECT_THROW(sem.release(0, CoreId{2}), std::logic_error);
  sem.release(0, CoreId{1});
  EXPECT_FALSE(sem.held(0));
  EXPECT_TRUE(sem.try_acquire(0, CoreId{2}));
}

TEST_F(PeriphTest, SemaphoreRegisterView) {
  HwSemaphores sem(kernel, tracer, 2);
  EXPECT_EQ(sem.read_reg(0), 0u);
  sem.try_acquire(0, CoreId{3});
  EXPECT_EQ(sem.read_reg(0), 4u);  // holder id + 1
  sem.write_reg(0, 0);             // force release (debugger poke)
  EXPECT_FALSE(sem.held(0));
  EXPECT_EQ(sem.registers().size(), 2u);
}

TEST_F(PeriphTest, PeripheralsExposeSignals) {
  TimerPeripheral timer(kernel, tracer, irqc, 7);
  EXPECT_FALSE(irqc.signals().empty());
  EXPECT_EQ(timer.signals().size(), 1u);
  EXPECT_EQ(timer.signals()[0]->name(), "timer.expired");
}

}  // namespace
}  // namespace rw::sim
