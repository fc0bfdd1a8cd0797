#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/fnv.hpp"
#include "harness/harness.hpp"
#include "harness_equal.hpp"
#include "perf/driver.hpp"
#include "perf/export.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"

namespace rw::perf {
namespace {

std::unique_ptr<sim::Platform> make_platform(std::size_t cores = 4,
                                             bool mesh = false) {
  auto cfg = sim::PlatformConfig::homogeneous(cores, mhz(400));
  cfg.trace_enabled = true;
  if (mesh) cfg.use_square_mesh();
  return std::make_unique<sim::Platform>(std::move(cfg));
}

struct Exports {
  std::string json, chrome, folded, csv;
};

Exports run_and_export(const char* workload, bool mesh = false) {
  auto plat = make_platform(4, mesh);
  PerfConfig cfg;
  cfg.profiler.period = microseconds(5);
  cfg.epoch_width = microseconds(25);
  PerfSession session(*plat, cfg);
  spawn_workload(workload, *plat, /*seed=*/9, /*scale=*/2);
  plat->kernel().run();
  const PerfReport report = session.report();
  Exports e;
  e.json = to_json(report);
  e.chrome = to_chrome_trace(plat->tracer().events());
  e.folded = to_folded_stacks(report.profile);
  e.csv = to_csv(report.epochs, report.num_cores);
  return e;
}

std::uint64_t fnv1a(std::string_view doc,
                    std::uint64_t h = fnv::kRecorderSeed) {
  return fnv::fold(h, doc);
}

// The headline determinism claim: every export format is a pure function
// of the workload, byte for byte, across two fresh identical runs.
TEST(ExportTest, AllFormatsByteIdenticalAcrossRuns) {
  const Exports a = run_and_export("pipeline");
  const Exports b = run_and_export("pipeline");
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.folded, b.folded);
  EXPECT_EQ(a.csv, b.csv);
}

// Pinned FNV-1a digests of every export format. The rerun test above only
// compares two runs of one binary; these constants also catch a formatting
// change that is consistent between runs but alters bytes.
TEST(ExportTest, GoldenExportDigests) {
  struct Golden {
    const char* workload;
    bool mesh;
    std::uint64_t chrome, folded, csv, json;
  };
  // Forkjoin's shared-memory traffic is untimed, so bus and mesh agree.
  const Golden goldens[] = {
      {"forkjoin", false, 0x7cba8c768c8f8a8eull, 0xfd4fff809c54f336ull,
       0xbd0afff3145c48e8ull, 0x8f9140d141e5d83cull},
      {"forkjoin", true, 0x7cba8c768c8f8a8eull, 0xfd4fff809c54f336ull,
       0xbd0afff3145c48e8ull, 0x8f9140d141e5d83cull},
      {"shared_hammer", false, 0xd77eab033d454468ull, 0x755665779120b6a8ull,
       0x90336fe2689d1f55ull, 0xc56180d44ce98c54ull},
      {"shared_hammer", true, 0x6de262bcfd78580dull, 0xcc7d6e6f2dc7ddc5ull,
       0x4152aa7afd901a3dull, 0xdbf33d35a14eace9ull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(g.workload) + (g.mesh ? " mesh" : " bus"));
    const Exports e = run_and_export(g.workload, g.mesh);
    EXPECT_EQ(fnv1a(e.chrome), g.chrome);
    EXPECT_EQ(fnv1a(e.folded), g.folded);
    EXPECT_EQ(fnv1a(e.csv), g.csv);
    EXPECT_EQ(fnv1a(e.json), g.json);
  }
}

TEST(ExportTest, ChromeTraceIsWellFormedJson) {
  const Exports e = run_and_export("forkjoin");
  // Minimal structural checks on the trace-event doc: an array of "X"
  // complete events with the fields Perfetto requires.
  EXPECT_EQ(e.chrome.front(), '{');
  EXPECT_NE(e.chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(e.chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(e.chrome.find("\"dur\":"), std::string::npos);
  EXPECT_NE(e.chrome.find("\"serial\""), std::string::npos);  // a label
}

TEST(ExportTest, FoldedStacksCarryCorePrefixedLabels) {
  const Exports e = run_and_export("forkjoin");
  EXPECT_NE(e.folded.find("core0;serial "), std::string::npos);
  EXPECT_NE(e.folded.find(";parallel "), std::string::npos);
  // Every line is "stack count\n".
  std::istringstream in(e.folded);
  std::string stack;
  std::uint64_t count = 0;
  std::size_t lines = 0;
  while (in >> stack >> count) {
    EXPECT_NE(stack.find("core"), std::string::npos);
    EXPECT_GT(count, 0u);
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ExportTest, CsvHasHeaderPlusOneRowPerEpoch) {
  auto plat = make_platform(2);
  PerfConfig cfg;
  cfg.profile = false;
  cfg.epoch_width = microseconds(25);
  PerfSession session(*plat, cfg);
  spawn_workload("shared_hammer", *plat, 2, 1);
  plat->kernel().run();
  const PerfReport report = session.report();
  const std::string csv = to_csv(report.epochs, report.num_cores);

  std::size_t newlines = 0;
  for (const char c : csv)
    if (c == '\n') ++newlines;
  EXPECT_EQ(newlines, report.epochs.size() + 1);
  EXPECT_EQ(csv.rfind("epoch,start_ps,end_ps", 0), 0u);
  EXPECT_NE(csv.find("core0_util"), std::string::npos);
  EXPECT_NE(csv.find("core1_util"), std::string::npos);
}

// Regression: a session over a platform that never runs a workload must
// yield a zero-event trace that every exporter turns into a valid empty
// document — no asserts, no divisions by a zero makespan or epoch width.
TEST(ExportTest, ZeroEventSessionExportsAreValid) {
  auto plat = make_platform(3);
  PerfSession session(*plat, PerfConfig{});
  plat->kernel().run();  // nothing spawned: the kernel retires instantly
  const PerfReport report = session.report();
  EXPECT_EQ(plat->tracer().events().size(), 0u);
  EXPECT_EQ(report.makespan, 0u);
  EXPECT_EQ(report.mean_utilization(), 0.0);

  const std::string chrome = to_chrome_trace(plat->tracer().events());
  EXPECT_EQ(chrome, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n");
  EXPECT_EQ(to_folded_stacks(report.profile), "");
  const std::string csv = to_csv(report.epochs, report.num_cores);
  EXPECT_EQ(csv.rfind("epoch,start_ps,end_ps", 0), 0u);
  EXPECT_EQ(csv.find('\n'), csv.size() - 1);  // header only
  const std::string json = to_json(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"makespan_ps\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"epochs\": []"), std::string::npos);
}

TEST(ExportTest, EmptyInputsProduceValidSkeletons) {
  EXPECT_EQ(to_chrome_trace({}),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n");
  SamplingProfiler::Profile p;
  EXPECT_EQ(to_folded_stacks(p), "");
  const std::string csv = to_csv({}, 2);
  EXPECT_EQ(csv.rfind("epoch,", 0), 0u);  // header only
}

// Harness integration: the exports ride RunMetrics extras (as a split
// 64-bit FNV hash) and must be identical whether the harness fans runs
// out over threads or runs them serially.
TEST(ExportTest, HarnessSerialAndParallelProduceSameExports) {
  auto scenario = [] {
    harness::Scenario s("perf_export_determinism");
    for (const char* w : {"pipeline", "forkjoin"})
      s.add_run(w, [w](const harness::RunContext&) {
        const Exports e = run_and_export(w);
        std::uint64_t h = fnv1a(e.json);  // FNV-1a over all exports
        for (const std::string* doc : {&e.chrome, &e.folded, &e.csv})
          h = fnv1a(*doc, h);
        RunMetrics m;
        m.set_extra("export_hash_lo", static_cast<double>(h & 0xffffffffull));
        m.set_extra("export_hash_hi", static_cast<double>(h >> 32));
        return m;
      });
    return s;
  };
  const auto serial = harness::Runner({.threads = 1}).run(scenario());
  const auto parallel = harness::Runner({.threads = 4}).run(scenario());
  EXPECT_TRUE(harness::sim_equal(serial, parallel));
}

TEST(DriverTest, ListPrintsRegistryAndExitsZero) {
  const auto opts = parse_prof_args({"--list"});
  ASSERT_TRUE(opts.ok());
  std::ostringstream out;
  const auto report = run_prof(opts.value(), out);
  EXPECT_EQ(report.exit_code, 0);
  for (const auto& w : workload_registry())
    EXPECT_NE(out.str().find(w.name), std::string::npos);
}

TEST(DriverTest, ParseRejectsUnknownOptionsAndWorkloads) {
  EXPECT_FALSE(parse_prof_args({"--bogus"}).ok());
  EXPECT_FALSE(parse_prof_args({"not_a_workload"}).ok());
  EXPECT_FALSE(parse_prof_args({"--cores"}).ok());  // missing value
  const auto ok = parse_prof_args({"--governor", "--mesh", "--cores", "9",
                                   "--seed", "3", "--scale", "2",
                                   "--period-us", "7", "--epoch-us", "40",
                                   "--no-files", "pipeline"});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().governor);
  EXPECT_TRUE(ok.value().mesh);
  EXPECT_EQ(ok.value().cores, 9u);
  EXPECT_EQ(ok.value().period, microseconds(7));
  EXPECT_FALSE(ok.value().write_files);
  ASSERT_EQ(ok.value().workloads.size(), 1u);
}

TEST(DriverTest, ParseRejectsNumbersThatDoNotFit) {
  // 2^64 + 1 used to wrap to 1: one core, seed 1.
  for (const char* flag : {"--cores", "--seed", "--scale"}) {
    const auto r = parse_prof_args({flag, "18446744073709551617"});
    ASSERT_FALSE(r.ok()) << flag;
    EXPECT_NE(r.error().message.find("out of range"), std::string::npos)
        << r.error().to_string();
  }
  // Microsecond flags are held in picoseconds: 2^64 / 10^6 us wraps.
  EXPECT_FALSE(parse_prof_args({"--period-us", "18446744073710"}).ok());
  EXPECT_FALSE(parse_prof_args({"--epoch-us", "18446744073710"}).ok());
  const auto edge = parse_prof_args({"--seed", "18446744073709551615",
                                     "--period-us", "18446744073709"});
  ASSERT_TRUE(edge.ok()) << edge.error().to_string();
  EXPECT_EQ(edge.value().seed, 18446744073709551615ULL);
  EXPECT_EQ(edge.value().period, microseconds(18446744073709ULL));
}

TEST(DriverTest, JsonOutputIsDeterministic) {
  auto run_json = [] {
    auto opts = parse_prof_args({"--json", "--no-files", "--scale", "1",
                                 "pipeline"});
    EXPECT_TRUE(opts.ok());
    std::ostringstream out;
    const auto report = run_prof(opts.value(), out);
    EXPECT_EQ(report.exit_code, 0);
    return out.str();
  };
  const std::string a = run_json();
  EXPECT_EQ(a, run_json());
  EXPECT_NE(a.find("\"schema\": \"rw-perf-run-1\""), std::string::npos);
  EXPECT_NE(a.find("\"workload\": \"pipeline\""), std::string::npos);
}

TEST(DriverTest, GovernorRunReportsTransitions) {
  auto opts = parse_prof_args({"--governor", "--no-files", "--scale", "1",
                               "forkjoin"});
  ASSERT_TRUE(opts.ok());
  std::ostringstream out;
  const auto report = run_prof(opts.value(), out);
  EXPECT_EQ(report.exit_code, 0);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_GT(report.outcomes[0].governor_transitions, 0u);
  // The governed run still produced a full perf report.
  EXPECT_GT(report.outcomes[0].report.totals().busy_cycles, 0u);
}

}  // namespace
}  // namespace rw::perf
