// rw::fuzz — generator, case serialization, coverage accounting, and
// oracle sanity. The shrinker's property tests live in
// test_fuzz_shrink.cpp; the seeded-defect selftest in
// test_fuzz_defect.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fuzz/case.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "maps/taskgraph.hpp"

namespace {

/// The plan's rw-fault-plan-1 document.
std::string plan_json(const rw::fault::FaultPlan& plan) {
  rw::json::Writer w;
  plan.write_json(w);
  return w.str();
}

using namespace rw;

fuzz::CampaignCase faulted_case() {
  // Seeds are cheap: scan until the draw lands on a faultable family
  // with a non-empty plan, so the round-trip tests cover the nested
  // plan document too.
  for (std::uint64_t s = 1; s < 64; ++s) {
    fuzz::CampaignCase c = fuzz::generate_case(s);
    if (fuzz::family_faultable(c.family) && !c.plan.empty()) return c;
  }
  ADD_FAILURE() << "no faulted case in 64 seeds";
  return {};
}

TEST(FuzzCase, JsonRoundTripIsByteStable) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 12345ULL}) {
    const fuzz::CampaignCase c = fuzz::generate_case(seed);
    const std::string once = c.to_json();
    const auto parsed = fuzz::CampaignCase::from_json(once);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    EXPECT_EQ(parsed.value().to_json(), once) << c.summary();
  }
}

TEST(FuzzCase, JsonRoundTripCoversANonEmptyPlan) {
  const fuzz::CampaignCase c = faulted_case();
  const std::string once = c.to_json();
  const auto parsed = fuzz::CampaignCase::from_json(once);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().plan.size(), c.plan.size());
  EXPECT_EQ(parsed.value().to_json(), once);
}

TEST(FuzzCase, FromJsonRejectsGarbage) {
  EXPECT_FALSE(fuzz::CampaignCase::from_json("not json").ok());
  EXPECT_FALSE(fuzz::CampaignCase::from_json("{}").ok());
  EXPECT_FALSE(
      fuzz::CampaignCase::from_json(R"({"schema":"wrong-schema-9"})").ok());
}

TEST(FaultPlanJson, RandomPlanRoundTripsByteStably) {
  fault::RandomSpec spec;
  spec.rate_per_ms = 50.0;
  spec.window_start = 0;
  spec.window_end = microseconds(200);
  spec.num_cores = 4;
  const fault::FaultPlan plan = fault::FaultPlan::random(99, spec);
  ASSERT_FALSE(plan.empty());
  const std::string once = plan_json(plan);
  const auto parsed = fault::FaultPlan::from_json(once);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(plan_json(parsed.value()), once);
}

TEST(FuzzGenerator, SameSeedSameCaseDifferentSeedDifferentCase) {
  const fuzz::CampaignCase a = fuzz::generate_case(7);
  const fuzz::CampaignCase b = fuzz::generate_case(7);
  const fuzz::CampaignCase c = fuzz::generate_case(8);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json(), c.to_json());
}

TEST(FuzzGenerator, TinyShrinksTheRanges) {
  for (std::uint64_t s = 1; s <= 32; ++s) {
    fuzz::GeneratorConfig cfg;
    cfg.tiny = true;
    const fuzz::CampaignCase c = fuzz::generate_case(s, cfg);
    EXPECT_LE(c.cores, 3u);
    EXPECT_LE(c.items, 8u);
    EXPECT_LE(c.compute_cycles, 10'000u);
  }
}

TEST(FuzzGenerator, FamilyMaskRestrictsTheDraw) {
  fuzz::GeneratorConfig cfg;
  cfg.family_mask = fuzz::family_bit(fuzz::Family::kMaps);
  for (std::uint64_t s = 1; s <= 16; ++s)
    EXPECT_EQ(fuzz::generate_case(s, cfg).family, fuzz::Family::kMaps);
}

TEST(FuzzGenerator, DirectedTargetPinsTheCellAxes) {
  fuzz::DirectedTarget t;
  t.family = fuzz::Family::kFaultPipeline;
  t.kind = static_cast<int>(fault::FaultKind::kCoreStall);
  t.policy = sim::QueuePolicy::kBinaryHeap;
  t.parallel = true;
  fuzz::GeneratorConfig cfg;
  cfg.target = &t;
  for (std::uint64_t s = 1; s <= 16; ++s) {
    const fuzz::CampaignCase c = fuzz::generate_case(s, cfg);
    EXPECT_EQ(c.family, fuzz::Family::kFaultPipeline);
    EXPECT_EQ(c.queue, sim::QueuePolicy::kBinaryHeap);
    EXPECT_GE(c.tiles, 2u);
    for (const fault::FaultEvent& e : c.plan.events())
      EXPECT_EQ(e.kind, fault::FaultKind::kCoreStall);
  }
}

TEST(FuzzCoverage, ReachableMatrixHasTheDocumentedShape) {
  // 5 faultable families x (8 kinds + fault-free) x 2 policies x 2 exec
  // modes, plus maps (fault-free only, 2x2) and ert (one cell).
  EXPECT_EQ(fuzz::CoverageMatrix::reachable_count(), 185u);
  const auto cells = fuzz::CoverageMatrix::reachable();
  EXPECT_EQ(cells.size(), 185u);
  const std::set<fuzz::CoverageCell> unique(cells.begin(), cells.end());
  EXPECT_EQ(unique.size(), cells.size());
}

TEST(FuzzCoverage, MarksAccumulateAndUnreachableHitsDoNotInflate) {
  fuzz::CoverageMatrix m;
  EXPECT_EQ(m.hit_count(), 0u);
  EXPECT_DOUBLE_EQ(m.fraction(), 0.0);
  fuzz::CoverageCell cell;
  cell.family = fuzz::Family::kPipeline;
  cell.kind = fuzz::CoverageCell::kFaultFree;
  m.mark(cell);
  m.mark(cell);  // idempotent
  EXPECT_EQ(m.hit_count(), 1u);
  EXPECT_TRUE(m.hit(cell));
  EXPECT_EQ(m.unhit_reachable().size(),
            fuzz::CoverageMatrix::reachable_count() - 1);

  fuzz::CoverageCell alien;  // maps never takes faults
  alien.family = fuzz::Family::kMaps;
  alien.kind = 0;
  m.mark(alien);
  EXPECT_DOUBLE_EQ(m.fraction(),
                   1.0 / static_cast<double>(
                             fuzz::CoverageMatrix::reachable_count()));
}

TEST(FuzzCoverage, MergeUnionsTheHitSets) {
  const auto cells = fuzz::CoverageMatrix::reachable();
  fuzz::CoverageMatrix a;
  fuzz::CoverageMatrix b;
  a.mark(cells[0]);
  b.mark(cells[1]);
  a.merge(b);
  EXPECT_EQ(a.hit_count(), 2u);
}

TEST(FuzzOracle, SampleSeedsRunGreenAndFillOutcomes) {
  for (std::uint64_t s = 1; s <= 6; ++s) {
    fuzz::GeneratorConfig cfg;
    cfg.tiny = true;
    const fuzz::CampaignCase c = fuzz::generate_case(s, cfg);
    const fuzz::CaseOutcome out = fuzz::run_case(c);
    EXPECT_TRUE(out.ok()) << c.summary() << ": "
                          << (out.violations.empty()
                                  ? std::string()
                                  : out.violations.front().invariant);
    EXPECT_GT(out.sub_runs, 0u);
    EXPECT_FALSE(out.cells.empty());
  }
}

TEST(FuzzOracle, OutcomesAreDeterministic) {
  const fuzz::CampaignCase c = faulted_case();
  const fuzz::CaseOutcome a = fuzz::run_case(c);
  const fuzz::CaseOutcome b = fuzz::run_case(c);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sub_runs, b.sub_runs);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(FuzzOracle, CaseGraphIsAcyclicWithTheRequestedTasks) {
  for (std::uint64_t s = 1; s <= 12; ++s) {
    fuzz::CampaignCase c = fuzz::generate_case(s);
    c.family = fuzz::Family::kMaps;
    const maps::TaskGraph g = fuzz::build_case_graph(c);
    EXPECT_EQ(g.tasks().size(), c.graph_tasks);
    EXPECT_TRUE(g.is_acyclic());
  }
}

TEST(FuzzOracle, InvariantNamesAreStableAndNonEmpty) {
  const auto& names = fuzz::invariant_names();
  EXPECT_GE(names.size(), 9u);
  for (const std::string& n : names) EXPECT_NE(n.find('.'), std::string::npos);
}

}  // namespace
