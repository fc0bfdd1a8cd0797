// Sec. VII: "Peripheral access watchpoints allow suspending execution
// when a specific core or DMA is writing to a shared resource."
#include <gtest/gtest.h>

#include "vpdebug/debugger.hpp"

namespace rw::vpdebug {
namespace {

TEST(DmaWatch, WatchpointFiresOnDmaWrite) {
  auto cfg = sim::PlatformConfig::homogeneous(2, mhz(400));
  cfg.trace_enabled = true;
  sim::Platform p(std::move(cfg));
  Debugger dbg(p);

  const sim::Addr src = p.scratchpad_base(sim::CoreId{0});
  const sim::Addr dst = p.shared_base() + 256;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
  p.memory().poke(src, payload);

  dbg.watch_memory(dst, 8, /*on_write=*/true);
  p.dma().start(src, dst, 8);
  const auto stop = dbg.resume();
  EXPECT_EQ(stop.kind, StopKind::kWatchpointMem);
  // The access came from the DMA, not a core.
  EXPECT_NE(stop.detail.find("999"), std::string::npos);
  // Data is already in place when the system suspends.
  EXPECT_EQ(dbg.read_mem_u64(dst), 0x0807060504030201ULL);
}

TEST(DmaWatch, DmaBusySignalWatch) {
  auto cfg = sim::PlatformConfig::homogeneous(1, mhz(400));
  cfg.trace_enabled = true;
  sim::Platform p(std::move(cfg));
  Debugger dbg(p);
  dbg.watch_signal("dma.busy");
  p.memory().poke(p.shared_base(), std::vector<std::uint8_t>{9});
  p.dma().start(p.shared_base(), p.shared_base() + 64, 1);
  // The busy signal rose synchronously at start(); the stop is pending and
  // surfaces on the next event boundary.
  const auto stop = dbg.resume();
  EXPECT_EQ(stop.kind, StopKind::kWatchpointSignal);
}

// Signal changes after the debugger is gone must not reach it.
TEST(DmaWatch, DestroyedDebuggerStopsWatchingSignals) {
  auto cfg = sim::PlatformConfig::homogeneous(1, mhz(400));
  cfg.trace_enabled = true;
  sim::Platform p(std::move(cfg));
  {
    Debugger dbg(p);
    dbg.watch_signal("dma.busy");
  }
  ASSERT_TRUE(p.dma().start(p.shared_base(), p.shared_base() + 64, 8));
  p.run();
  EXPECT_FALSE(p.dma().busy());
  EXPECT_EQ(p.dma().busy_signal().toggle_count(), 2u);
}

TEST(DmaWatch, ReadWatchpointSeesDmaSourceRead) {
  auto cfg = sim::PlatformConfig::homogeneous(1, mhz(400));
  cfg.trace_enabled = true;
  sim::Platform p(std::move(cfg));
  Debugger dbg(p);
  const sim::Addr src = p.shared_base();
  dbg.watch_memory(src, 16, /*on_write=*/false, /*on_read=*/true);
  p.dma().start(src, src + 1024, 16);
  const auto stop = dbg.resume();
  EXPECT_EQ(stop.kind, StopKind::kWatchpointMem);
  EXPECT_NE(stop.detail.find("read"), std::string::npos);
}

}  // namespace
}  // namespace rw::vpdebug
