#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "cic/dse.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"
#include "harness_equal.hpp"

namespace rw::harness {
namespace {

// ------------------------------------------------------- seed derivation

TEST(SeedDerivation, NoCollisionsAcrossScenarioLabelIndex) {
  std::set<std::uint64_t> seeds;
  std::size_t total = 0;
  for (const char* scenario : {"dse", "a1", "e1_scalability"}) {
    for (int label = 0; label < 8; ++label) {
      for (std::size_t index = 0; index < 64; ++index) {
        seeds.insert(Scenario::derive_seed(Scenario::kDefaultBaseSeed,
                                           scenario,
                                           "run" + std::to_string(label),
                                           index));
        ++total;
      }
    }
  }
  EXPECT_EQ(seeds.size(), total);
}

TEST(SeedDerivation, SeparatorsPreventConcatenationAliasing) {
  // ("ab", "c") must not collide with ("a", "bc").
  EXPECT_NE(Scenario::derive_seed(1, "ab", "c", 0),
            Scenario::derive_seed(1, "a", "bc", 0));
  // Base seed participates.
  EXPECT_NE(Scenario::derive_seed(1, "s", "l", 0),
            Scenario::derive_seed(2, "s", "l", 0));
}

TEST(SeedDerivation, StableAcrossCalls) {
  Scenario s("stable");
  s.add_run("x", [](const RunContext&) { return RunMetrics{}; });
  EXPECT_EQ(s.seed_for(0), s.seed_for(0));
  EXPECT_EQ(s.seed_for(0),
            Scenario::derive_seed(Scenario::kDefaultBaseSeed, "stable", "x",
                                  0));
}

// ---------------------------------------------------------------- runner

Scenario counting_scenario(std::size_t n) {
  Scenario s("count");
  for (std::size_t i = 0; i < n; ++i) {
    s.add_run(strformat("r%zu", i), [](const RunContext& ctx) {
      RunMetrics m;
      m.makespan = ctx.index * 100;  // deterministic function of identity
      m.deadline_misses = ctx.seed % 7;
      return m;
    });
  }
  return s;
}

TEST(Runner, CollectsInSubmissionOrderRegardlessOfThreads) {
  const auto s = counting_scenario(100);
  const auto r = Runner({8}).run(s);
  ASSERT_EQ(r.runs.size(), 100u);
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    EXPECT_EQ(r.runs[i].index, i);
    EXPECT_EQ(r.runs[i].label, strformat("r%zu", i));
    EXPECT_EQ(r.runs[i].seed, s.seed_for(i));
    EXPECT_EQ(r.runs[i].metrics.makespan, i * 100);
    EXPECT_TRUE(r.runs[i].ok);
  }
}

TEST(Runner, ParallelIdenticalToSerial) {
  const auto s = counting_scenario(64);
  const auto serial = Runner({1}).run(s);
  const auto parallel = Runner({8}).run(s);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(parallel.threads_used, 8u);
  EXPECT_TRUE(sim_equal(serial, parallel));
}

TEST(Runner, ThreadCountNeverExceedsRuns) {
  EXPECT_EQ(Runner({64}).effective_threads(3), 3u);
  EXPECT_EQ(Runner({2}).effective_threads(100), 2u);
  EXPECT_GE(Runner({0}).effective_threads(100), 1u);
  EXPECT_EQ(Runner({4}).effective_threads(0), 1u);
}

TEST(Runner, CapturesRunExceptionsAsRecords) {
  Scenario s("throwing");
  s.add_run("good", [](const RunContext&) {
    RunMetrics m;
    m.makespan = 42;
    return m;
  });
  s.add_run("bad", [](const RunContext&) -> RunMetrics {
    throw std::runtime_error("simulated failure");
  });
  const auto r = Runner({2}).run(s);
  ASSERT_EQ(r.runs.size(), 2u);
  EXPECT_TRUE(r.runs[0].ok);
  EXPECT_EQ(r.runs[0].metrics.makespan, 42u);
  EXPECT_FALSE(r.runs[1].ok);
  EXPECT_EQ(r.runs[1].error, "simulated failure");
  // Serial execution reports the failure identically.
  EXPECT_TRUE(sim_equal(r, Runner({1}).run(s)));
}

// ---------------------------------------------------------- JSON export

TEST(JsonExport, ContainsScenarioAndMetricFields) {
  Scenario s("json_probe");
  s.add_run("only", [](const RunContext&) {
    RunMetrics m;
    m.makespan = 7;
    m.mean_core_utilization = 0.5;
    m.set_extra("contention_ps", 3.0);
    return m;
  });
  const auto r = Runner({1}).run(s);
  const std::string doc = to_json({r});
  for (const char* needle :
       {"\"name\": \"json_probe\"", "\"label\": \"only\"",
        "\"makespan_ps\": 7", "\"mean_core_utilization\": 0.5",
        "\"contention_ps\": 3", "\"seed\":", "\"wall_ns\":"})
    EXPECT_NE(doc.find(needle), std::string::npos) << needle << "\n" << doc;
}

// ------------------------------------------- determinism over a DSE sweep

/// The tentpole guarantee: a parallel fan-out of the cic DSE sweep is
/// byte-identical to serial evaluation — same seeds, ordered collection.
TEST(HarnessDse, ParallelSweepByteIdenticalToSerial) {
  using namespace rw::cic;
  CicProgram p("fanout");
  const auto src = p.add_task("src", 2'000, {}, {"o0", "o1"});
  p.set_period(src, microseconds(600));
  const auto snk = p.add_task("snk", 3'000, {"i0", "i1"}, {});
  for (int b = 0; b < 2; ++b) {
    const auto w = p.add_task("work" + std::to_string(b), 120'000, {"in"},
                              {"out"});
    p.connect(src, strformat("o%d", b), w, "in", 1024);
    p.connect(w, "out", snk, strformat("i%d", b), 512);
  }

  const auto candidates = default_candidates(4);
  harness::ScenarioResult serial_fanout, parallel_fanout;
  const auto serial =
      explore_architectures(p, candidates, {15, false, 1}, &serial_fanout);
  const auto parallel =
      explore_architectures(p, candidates, {15, false, 4}, &parallel_fanout);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].arch.name, parallel[i].arch.name);
    EXPECT_EQ(serial[i].area_cost, parallel[i].area_cost);
    EXPECT_EQ(serial[i].feasible, parallel[i].feasible);
    EXPECT_EQ(serial[i].pareto, parallel[i].pareto);
    EXPECT_TRUE(serial[i].metrics.sim_equal(parallel[i].metrics))
        << serial[i].arch.name;
  }
  EXPECT_EQ(serial_fanout.threads_used, 1u);
  EXPECT_TRUE(sim_equal(serial_fanout, parallel_fanout));
  // Byte-identical formatted output too (tables carry no wall clocks).
  auto table_of = [](const std::vector<DsePoint>& pts) {
    Table t({"arch", "area", "makespan", "pareto"});
    for (const auto& pt : pts)
      t.add_row({pt.arch.name, Table::num(pt.area_cost, 3),
                 std::to_string(pt.metrics.makespan),
                 pt.pareto ? "Y" : "N"});
    return t.to_string();
  };
  EXPECT_EQ(table_of(serial), table_of(parallel));
}

}  // namespace
}  // namespace rw::harness
