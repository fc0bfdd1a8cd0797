// The headline experiment of the lint framework (ISSUE 2): every mapped
// corpus program runs both through the static passes and on the virtual
// platform with the vpdebug::RaceDetector armed; the static findings must
// be a conservative superset of whatever the dynamic run observes. A
// static analyzer may warn about executions that never happen — it must
// never miss one that does.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "lint/corpus.hpp"
#include "lint/pass.hpp"
#include "lint_dynamic.hpp"

namespace rw::lint {
namespace {

std::set<std::string> error_keys(const std::vector<Diagnostic>& diags) {
  std::set<std::string> out;
  for (const auto& d : diags)
    if (d.severity == Severity::kError) out.insert(key(d));
  return out;
}

TEST(LintCrossCheck, StaticFindingsAreASupersetOfDynamicObservations) {
  const auto pm = PassManager::with_default_passes();
  for (const auto& p : build_corpus()) {
    if (!p.runnable()) continue;
    const auto statics = error_keys(pm.run(p.target()).diagnostics);
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      DynamicRunConfig cfg;
      cfg.seed = seed;
      const auto obs = run_dynamic(p, cfg);
      for (const auto& d : obs.to_diagnostics(p.name))
        EXPECT_TRUE(statics.count(key(d)))
            << p.name << " seed " << seed << ": dynamic observation "
            << key(d) << " was not statically predicted";
    }
  }
}

TEST(LintCrossCheck, SeededRaceIsDynamicallyObservable) {
  // Not vacuous: the dynamic twin really does catch the seeded race in
  // at least one of a handful of schedules.
  const auto corpus = build_corpus();
  bool observed = false;
  for (const auto& p : corpus) {
    if (p.name != "racy_counter") continue;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
      DynamicRunConfig cfg;
      cfg.seed = seed;
      const auto obs = run_dynamic(p, cfg);
      EXPECT_GT(obs.accesses_observed, 0u);
      if (obs.raced_vars.count("counter")) observed = true;
    }
  }
  EXPECT_TRUE(observed)
      << "racy_counter never raced dynamically across 5 seeds";
}

TEST(LintCrossCheck, SeededWaitCycleWedgesDynamically) {
  const auto corpus = build_corpus();
  for (const auto& p : corpus) {
    if (p.name != "token_cycle" && p.name != "order_inversion") continue;
    const auto obs = run_dynamic(p);
    EXPECT_FALSE(obs.blocked_tasks.empty())
        << p.name << " should wedge at the horizon";
  }
}

TEST(LintCrossCheck, CleanProgramIsDynamicallyQuiet) {
  const auto corpus = build_corpus();
  for (const auto& p : corpus) {
    if (p.name != "clean_pipeline") continue;
    for (const std::uint64_t seed : {1ull, 9ull}) {
      DynamicRunConfig cfg;
      cfg.seed = seed;
      const auto obs = run_dynamic(p, cfg);
      EXPECT_GT(obs.accesses_observed, 0u);
      EXPECT_TRUE(obs.raced_vars.empty())
          << "clean_pipeline raced dynamically (seed " << seed << ")";
      EXPECT_TRUE(obs.blocked_tasks.empty());
    }
  }
}

TEST(LintCrossCheck, DynamicRunIsDeterministicInSeed) {
  const auto corpus = build_corpus();
  for (const auto& p : corpus) {
    if (p.name != "racy_counter") continue;
    const auto a = run_dynamic(p);
    const auto b = run_dynamic(p);
    EXPECT_EQ(a.accesses_observed, b.accesses_observed);
    EXPECT_EQ(a.raced_vars, b.raced_vars);
    EXPECT_EQ(a.blocked_tasks, b.blocked_tasks);
    EXPECT_EQ(a.races.size(), b.races.size());
  }
}

TEST(LintCrossCheck, DynamicDiagnosticsUseTheSharedKeySpace) {
  const auto corpus = build_corpus();
  for (const auto& p : corpus) {
    if (p.name != "token_cycle") continue;
    const auto obs = run_dynamic(p);
    const auto diags = obs.to_diagnostics(p.name);
    ASSERT_FALSE(diags.empty());
    for (const auto& d : diags) {
      EXPECT_EQ(d.pass, "dynamic");
      EXPECT_EQ(d.severity, Severity::kError);
      EXPECT_EQ(d.location.unit, p.name);
    }
  }
}

}  // namespace
}  // namespace rw::lint
