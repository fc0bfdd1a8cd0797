#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "perf/export.hpp"
#include "perf/traceview.hpp"
#include "perf/workload.hpp"
#include "sim/process.hpp"
#include "trace_fixtures.hpp"
#include "vpdebug/tracexport.hpp"

namespace rw::vpdebug {
namespace {

using sim::busy_task;
using sim::crash_and_recover_trace;

class TraceExportTest : public ::testing::Test {
 protected:
  TraceExportTest() {
    auto cfg = sim::PlatformConfig::homogeneous(2, ghz(1));
    cfg.trace_enabled = true;
    platform = std::make_unique<sim::Platform>(std::move(cfg));
  }
  std::unique_ptr<sim::Platform> platform;
};

TEST_F(TraceExportTest, FunctionHistoryPairsStartsAndEnds) {
  sim::spawn(platform->kernel(),
             busy_task(*platform, 0, 10'000, "fir", 3));
  sim::spawn(platform->kernel(),
             busy_task(*platform, 1, 5'000, "iir", 2));
  platform->kernel().run();

  const auto h0 = function_history(platform->tracer().events(),
                                   sim::CoreId{0});
  ASSERT_EQ(h0.size(), 3u);
  for (const auto& b : h0) {
    EXPECT_EQ(b.label, "fir");
    EXPECT_EQ(b.end - b.start, cycles_to_ps(10'000, ghz(1)));
  }
  // Blocks are time-ordered and non-overlapping on one core.
  EXPECT_LE(h0[0].end, h0[1].start);
  EXPECT_LE(h0[1].end, h0[2].start);

  const auto h1 = function_history(platform->tracer().events(),
                                   sim::CoreId{1});
  EXPECT_EQ(h1.size(), 2u);
  EXPECT_EQ(h1[0].label, "iir");
}

TEST_F(TraceExportTest, GanttShowsBothCoresAndLegend) {
  sim::spawn(platform->kernel(),
             busy_task(*platform, 0, 10'000, "alpha", 2));
  sim::spawn(platform->kernel(),
             busy_task(*platform, 1, 10'000, "beta", 2));
  platform->kernel().run();
  const auto g = render_gantt(platform->tracer().events(), 2, 0,
                              platform->kernel().now(), 40);
  EXPECT_NE(g.find("core0"), std::string::npos);
  EXPECT_NE(g.find("core1"), std::string::npos);
  EXPECT_NE(g.find("a=alpha"), std::string::npos);
  EXPECT_NE(g.find("b=beta"), std::string::npos);
  // Activity letters appear in the rows.
  EXPECT_NE(g.find('a'), std::string::npos);
}

TEST_F(TraceExportTest, GanttEmptyWindow) {
  EXPECT_EQ(render_gantt({}, 2, 100, 100, 40), "");
  EXPECT_EQ(render_gantt({}, 2, 0, 100, 0), "");
}

TEST_F(TraceExportTest, VcdStructureAndToggles) {
  sim::spawn(platform->kernel(),
             busy_task(*platform, 0, 2'000, "work", 2));
  platform->timer().start_oneshot(microseconds(3));
  platform->irqc().set_handler(sim::kIrqTimer, [&](std::size_t line) {
    platform->irqc().ack(line);
  });
  platform->kernel().run();

  const std::string vcd = export_vcd(platform->tracer().events(), 2);
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("core0_busy"), std::string::npos);
  EXPECT_NE(vcd.find("core1_busy"), std::string::npos);
  EXPECT_NE(vcd.find("irq0"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  // core0 toggles busy twice: two compute blocks -> 2 rises + 2 falls.
  std::size_t rises = 0, pos = 0;
  while ((pos = vcd.find("1b0", pos)) != std::string::npos) {
    ++rises;
    pos += 3;
  }
  EXPECT_EQ(rises, 2u);
  // The IRQ raises and is acked.
  EXPECT_NE(vcd.find("1q0"), std::string::npos);
  EXPECT_NE(vcd.find("0q0"), std::string::npos);
}

TEST_F(TraceExportTest, VcdTimeMonotonicity) {
  sim::spawn(platform->kernel(),
             busy_task(*platform, 0, 1'000, "w", 3));
  platform->kernel().run();
  const std::string vcd = export_vcd(platform->tracer().events(), 2);
  // Every #timestamp line must be non-decreasing.
  std::uint64_t last = 0;
  for (const auto& line : rw::split(vcd, '\n')) {
    if (!line.empty() && line[0] == '#') {
      std::uint64_t t = 0;
      ASSERT_TRUE(rw::parse_u64(line.substr(1), t)) << line;
      EXPECT_GE(t, last);
      last = t;
    }
  }
}

// Determinism: two fresh, identically-configured runs must replay to
// byte-identical VCD and Gantt renderings — the property that makes the
// exports diffable artifacts rather than one-off dumps.
TEST(TraceExportDeterminism, VcdAndGanttByteIdenticalAcrossRuns) {
  auto run_once = [](std::string& vcd, std::string& gantt) {
    auto cfg = sim::PlatformConfig::homogeneous(2, ghz(1));
    cfg.trace_enabled = true;
    sim::Platform p(std::move(cfg));
    sim::spawn(p.kernel(), busy_task(p, 0, 10'000, "fir", 3));
    sim::spawn(p.kernel(), busy_task(p, 1, 5'000, "iir", 4));
    p.kernel().run();
    vcd = export_vcd(p.tracer().events(), 2);
    gantt = render_gantt(p.tracer().events(), 2, 0, p.kernel().now(), 60);
  };
  std::string vcd_a, gantt_a, vcd_b, gantt_b;
  run_once(vcd_a, gantt_a);
  run_once(vcd_b, gantt_b);
  EXPECT_FALSE(vcd_a.empty());
  EXPECT_FALSE(gantt_a.empty());
  EXPECT_EQ(vcd_a, vcd_b);
  EXPECT_EQ(gantt_a, gantt_b);
}

TEST(TraceExportDeterminism, EmptyTraceVcdIsValidSkeleton) {
  const std::string vcd = export_vcd({}, 2);
  // Header and variable declarations must still be present, with no
  // value-change records after $enddefinitions.
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("core0_busy"), std::string::npos);
  EXPECT_NE(vcd.find("core1_busy"), std::string::npos);
  const auto defs_end = vcd.find("$enddefinitions $end");
  ASSERT_NE(defs_end, std::string::npos);
  // Identical on repeat, trivially — but assert it anyway so the empty
  // path stays in the determinism contract.
  EXPECT_EQ(vcd, export_vcd({}, 2));
}

// --- one pairing rule: regressions and agreement across the readers ---

// The value changes of VCD wire `id`, as (time, level) after the header;
// the first is the initial 0 at #0.
std::vector<std::pair<TimePs, char>> wire_changes(const std::string& vcd,
                                                  const std::string& id) {
  std::vector<std::pair<TimePs, char>> out;
  const auto body = vcd.find("$enddefinitions $end\n");
  if (body == std::string::npos) return out;
  TimePs now = 0;
  for (const auto& line : rw::split(vcd.substr(body), '\n')) {
    if (!line.empty() && line[0] == '#') {
      std::uint64_t t = 0;
      if (rw::parse_u64(line.substr(1), t)) now = t;
    } else if (line.size() == id.size() + 1 && line.substr(1) == id) {
      out.emplace_back(now, line[0]);
    }
  }
  return out;
}

// Tracing switched on at 5 us while core 0's first block ([0, 10] us) is
// in flight: its end has no start; blocks two and three are whole.
std::vector<sim::TraceEvent> enabled_mid_run_trace() {
  auto cfg = sim::PlatformConfig::homogeneous(2, ghz(1));
  sim::Platform p(std::move(cfg));
  sim::spawn(p.kernel(), busy_task(p, 0, 10'000, "fir", 3));
  p.kernel().schedule_at(microseconds(5),
                         [&] { p.tracer().set_enabled(true); });
  p.kernel().run();
  return p.tracer().events();
}

TEST(TracePairingRegression, CrashedBlockLeavesNoPhantomSpanAndWireFalls) {
  const auto trace = crash_and_recover_trace();
  const auto view = perf::TraceView::from_events(trace);
  ASSERT_EQ(view.computes().size(), 1u);
  for (const auto& s : view.computes()) EXPECT_GT(s.duration(), 0u);
  EXPECT_EQ(view.computes()[0].start, microseconds(8));
  EXPECT_EQ(view.computes()[0].finish, microseconds(22));

  const std::vector<std::pair<TimePs, char>> want = {
      {0, '0'}, {microseconds(8), '1'}, {microseconds(22), '0'}};
  EXPECT_EQ(wire_changes(export_vcd(trace, 2), "b0"), want);
}

TEST(TracePairingRegression, MidRunTracerDrawsEveryRetiredBlockInVcd) {
  const auto trace = enabled_mid_run_trace();
  const auto blocks = function_history(trace, sim::CoreId{0});
  ASSERT_EQ(blocks.size(), 2u);
  std::vector<std::pair<TimePs, char>> want = {{0, '0'}};
  for (const auto& b : blocks) {
    want.emplace_back(b.start, '1');
    want.emplace_back(b.end, '0');
  }
  EXPECT_EQ(wire_changes(export_vcd(trace, 2), "b0"), want);
}

// Every reader sees the same compute blocks: the Chrome "X" events, the
// function histories summed over cores and TraceView's block spans agree
// in number and times, as (core, ts, dur) in Chrome's microseconds.
TEST(TracePairingAgreement, ChromeHistoryAndTraceViewSeeTheSameBlocks) {
  using Block = std::tuple<std::uint64_t, double, double>;
  const auto block = [](std::size_t core, TimePs start, TimePs finish) {
    return Block{core, static_cast<double>(start) * 1e-6,
                 static_cast<double>(finish - start) * 1e-6};
  };
  struct Case {
    std::string name;
    std::vector<sim::TraceEvent> trace;
    std::size_t cores;
  };
  std::vector<Case> cases;
  for (const bool mesh : {false, true}) {
    for (const char* demo :
         {"pipeline", "forkjoin", "shared_hammer", "tiled_pipeline"}) {
      auto cfg = sim::PlatformConfig::homogeneous(4, mhz(400));
      cfg.trace_enabled = true;
      if (mesh) cfg.use_square_mesh();
      sim::Platform p(std::move(cfg));
      ASSERT_TRUE(perf::spawn_workload(demo, p, /*seed=*/9, /*scale=*/2));
      p.kernel().run();
      cases.push_back({std::string(demo) + (mesh ? " mesh" : " bus"),
                       p.tracer().events(), 4});
    }
  }
  cases.push_back({"crash", crash_and_recover_trace(), 2});
  cases.push_back({"mid-run", enabled_mid_run_trace(), 2});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<Block> chrome;
    auto doc = json::parse(perf::to_chrome_trace(c.trace));
    ASSERT_TRUE(doc.ok()) << doc.error().to_string();
    for (const json::Value& ev : doc.value().get("traceEvents")->items()) {
      ASSERT_EQ(ev.get_string("ph"), "X");
      chrome.emplace_back(ev.get_u64("tid"), ev.get("ts")->number(),
                          ev.get("dur")->number());
    }
    std::vector<Block> history;
    for (std::size_t core = 0; core < c.cores; ++core)
      for (const auto& b : function_history(
               c.trace, sim::CoreId{static_cast<std::uint32_t>(core)}))
        history.push_back(block(core, b.start, b.end));
    std::vector<Block> view;
    const auto spans = perf::TraceView::from_events(c.trace);
    for (const auto& s : spans.computes())
      view.push_back(block(s.core.index(), s.start, s.finish));

    ASSERT_FALSE(chrome.empty());
    std::sort(chrome.begin(), chrome.end());
    std::sort(history.begin(), history.end());
    std::sort(view.begin(), view.end());
    EXPECT_EQ(chrome, history);
    EXPECT_EQ(chrome, view);
  }
}

}  // namespace
}  // namespace rw::vpdebug
