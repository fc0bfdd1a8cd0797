// perf::to_chrome_trace against its specification: byte for byte the
// document json::Writer wrote for the same trace (chrome_oracle.hpp), on
// simulated traces of every demo, DVFS-shifted runs, the crash and ert
// traces, hand-built traces with hostile labels and extreme times; and
// its timestamp writer against Writer::value(double) number by number.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chrome_oracle.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "ert/service.hpp"
#include "ert/templates.hpp"
#include "perf/export.hpp"
#include "perf/governor.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"
#include "trace_fixtures.hpp"

namespace rw::perf {
namespace {

void expect_matches_oracle(const std::vector<sim::TraceEvent>& trace) {
  const std::string want = oracle::to_chrome_trace(trace);
  const std::string got = to_chrome_trace(trace);
  if (got == want) return;
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const std::size_t from = at < 60 ? 0 : at - 60;
  ADD_FAILURE() << "first difference at byte " << at << "\n  got:  "
                << got.substr(from, 120) << "\n  want: "
                << want.substr(from, 120);
}

// A traced demo run. With `governor`, as `rwprof --governor` runs it: the
// PMU-fed DVFS governor shifts the block times off the bus run's grid.
std::vector<sim::TraceEvent> demo_trace(const char* demo, bool mesh,
                                        std::uint64_t seed, bool governor) {
  auto cfg = sim::PlatformConfig::homogeneous(4);
  cfg.trace_enabled = true;
  if (mesh) cfg.use_square_mesh();
  sim::Platform p(std::move(cfg));
  PerfConfig pcfg;
  pcfg.profiler.period = microseconds(10);
  pcfg.epoch_width = microseconds(50);
  PerfSession session(p, pcfg);
  std::unique_ptr<PmuGovernor> gov;
  if (governor) {
    gov = std::make_unique<PmuGovernor>(p, session.pmu(), GovernorConfig{});
    gov->start();
  }
  EXPECT_TRUE(spawn_workload(demo, p, seed, governor ? 8 : 1));
  p.run();
  if (gov) {
    EXPECT_GT(gov->transitions(), 0u);
  }
  return p.tracer().events();
}

const char* const kDemos[] = {"pipeline", "forkjoin", "shared_hammer",
                              "tiled_pipeline"};

TEST(ChromeOracle, DemoTracesOnBusAndMeshMatch) {
  for (const char* demo : kDemos)
    for (const bool mesh : {false, true})
      for (const std::uint64_t seed : {1, 9, 42}) {
        SCOPED_TRACE(strformat("%s %s seed %llu", demo, mesh ? "mesh" : "bus",
                               static_cast<unsigned long long>(seed)));
        expect_matches_oracle(demo_trace(demo, mesh, seed, false));
      }
}

TEST(ChromeOracle, GovernorShiftedTracesMatch) {
  for (const char* demo : kDemos) {
    SCOPED_TRACE(demo);
    expect_matches_oracle(demo_trace(demo, false, 1, true));
  }
}

TEST(ChromeOracle, CrashedBlockTraceMatches) {
  expect_matches_oracle(sim::crash_and_recover_trace());
}

TEST(ChromeOracle, ErtServiceTraceMatches) {
  ert::Service service(ert::ServiceConfig{});
  auto a = service.open_session(ert::TenantConfig{.name = "a", .share = 0.5});
  auto b = service.open_session(ert::TenantConfig{.name = "b", .share = 0.5});
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<ert::JobHandle> handles;
  TimePs arrival = 0;
  for (const std::string& name : ert::template_names())
    for (ert::Session* s : {&a.value(), &b.value()}) {
      ert::JobSpec spec = ert::make_template(name);
      arrival += microseconds(7);
      spec.arrival = arrival;
      handles.push_back(s->submit(std::move(spec)));
    }
  for (const ert::JobHandle& h : handles) ASSERT_TRUE(h.result().ok());
  const std::vector<sim::TraceEvent> trace = service.trace();
  ASSERT_FALSE(trace.empty());
  expect_matches_oracle(trace);
}

// One compute block [start, start + dur] on `core`, as its two records.
void add_block(std::vector<sim::TraceEvent>& trace, std::uint32_t core,
               TimePs start, DurationPs dur, const std::string& label) {
  trace.push_back({start, sim::TraceKind::kComputeStart, sim::CoreId{core},
                   label, 1, 0});
  trace.push_back({start + dur, sim::TraceKind::kComputeEnd,
                   sim::CoreId{core}, label, 0, 0});
}

TEST(ChromeOracle, HostileLabelsMatch) {
  std::vector<sim::TraceEvent> trace;
  const std::string labels[] = {
      "",          "plain",        "q\"uote",        "back\\slash",
      "new\nline", "cr\rtab\t",    std::string("nul\0x", 5),
      "ctl\x01\x1f", "del\x7f",    "caf\xc3\xa9",    "\xe2\x82\xac euro",
      "bad\xff\xfe utf8", "/solidus/"};
  std::uint32_t core = 0;
  TimePs t = 0;
  for (const std::string& label : labels) {
    add_block(trace, core++ % 3, t, 1'250'000, label);
    t += 2'000'000;
  }
  expect_matches_oracle(trace);
  EXPECT_NE(to_chrome_trace(trace).find("q\\\"uote"), std::string::npos);
}

TEST(ChromeOracle, ExtremeSpansAndStartsMatch) {
  std::vector<DurationPs> spans = {0, 100, 101, 999'999, 1'000'000,
                                   999'999'999'999'999,
                                   1'000'000'000'000'000,
                                   1'000'000'000'000'001};
  for (DurationPs d = 1; d < 100; ++d) spans.push_back(d);
  const TimePs two53 = TimePs{1} << 53;
  const TimePs starts[] = {0,         1,         99,        100,
                           two53 - 1, two53,     two53 + 1, two53 + 3,
                           UINT64_MAX - 1'000'000'000'000'001};
  std::vector<sim::TraceEvent> trace;
  for (const TimePs s : starts)
    for (const DurationPs d : spans) add_block(trace, 0, s, d, "blk");
  // Blocks that end exactly at the last representable picosecond.
  add_block(trace, 1, UINT64_MAX - 100, 100, "end");
  add_block(trace, 1, UINT64_MAX - 7, 7, "end");
  add_block(trace, 1, UINT64_MAX, 0, "end");
  expect_matches_oracle(trace);
}

TEST(ChromeOracle, EmptyAndUnpairedTracesMatch) {
  expect_matches_oracle({});
  std::vector<sim::TraceEvent> trace;
  add_block(trace, 0, 10, 20, "x");
  trace.push_back({40, sim::TraceKind::kComputeEnd, sim::CoreId{1}, "orphan",
                   0, 0});
  trace.push_back({50, sim::TraceKind::kComputeStart, sim::CoreId{2}, "open",
                   1, 0});
  expect_matches_oracle(trace);
}

// --- the timestamp writer, number by number ---

// The Writer's bytes for ps as microseconds: the specification of
// append_ps_as_us.
std::string writer_us(TimePs ps) {
  json::Writer w(/*pretty=*/false);
  w.value(static_cast<double>(ps) * 1e-6);
  return w.str();
}

// Compares append_ps_as_us with the Writer value by value, and counts the
// values whose bytes carry 17 significant digits (%.15g did not read
// back), so a test can see that path ran.
class UsChecker {
 public:
  void check(TimePs ps) {
    got_.clear();
    append_ps_as_us(got_, ps);
    const std::string want = writer_us(ps);
    if (got_ != want && ++failures_ <= 10)
      ADD_FAILURE() << ps << " ps: got " << got_ << ", want " << want;
    std::size_t significant = 0;
    for (const char c : want) {
      if (c == 'e') break;
      if (c >= '0' && c <= '9') significant += significant > 0 || c != '0';
    }
    long_form_ += significant >= 17;
  }
  [[nodiscard]] std::size_t failures() const { return failures_; }
  [[nodiscard]] std::size_t long_form() const { return long_form_; }

 private:
  std::string got_;
  std::size_t failures_ = 0, long_form_ = 0;
};

TEST(ChromeTimestamp, MatchesWriterForEveryPsBelowThreeMillion) {
  UsChecker c;
  for (TimePs ps = 0; ps < 3'000'000; ++ps) c.check(ps);
  EXPECT_EQ(c.failures(), 0u);
  EXPECT_GT(c.long_form(), 0u);
}

TEST(ChromeTimestamp, MatchesWriterForRandomPsOfEveryBitWidth) {
  Rng rng(0x5eedc0de3e00ULL);
  UsChecker c;
  for (unsigned width = 1; width <= 64; ++width) {
    const TimePs top = TimePs{1} << (width - 1);
    for (int i = 0; i < 16'384; ++i) c.check(top | (rng.next_u64() & (top - 1)));
  }
  EXPECT_EQ(c.failures(), 0u);
  EXPECT_GT(c.long_form(), 0u);
}

}  // namespace
}  // namespace rw::perf
