// rw::lint framework: diagnostics, passes over the three program
// representations, the adapters off the legacy report structs, and the
// rwlint driver (table output, LINT_<name>.json, exit codes).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "lint/adapters.hpp"
#include "lint/corpus.hpp"
#include "lint/driver.hpp"
#include "lint/pass.hpp"
#include "lint/passes.hpp"
#include "lint_dynamic.hpp"
#include "recoder/parser.hpp"
#include "recoder/shared_report.hpp"

namespace rw::lint {
namespace {

std::set<std::string> kinds_of(const std::vector<Diagnostic>& diags,
                               Severity at_least = Severity::kWarning) {
  std::set<std::string> out;
  for (const auto& d : diags)
    if (static_cast<int>(d.severity) >= static_cast<int>(at_least))
      out.insert(d.kind);
  return out;
}

const CorpusProgram& corpus_entry(const std::vector<CorpusProgram>& c,
                                  const std::string& name) {
  for (const auto& p : c)
    if (p.name == name) return p;
  throw std::runtime_error("no corpus program " + name);
}

// ------------------------------------------------------------- diagnostics

TEST(LintDiagnostic, KeyAndRendering) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.subsystem = "maps";
  d.pass = "static-race";
  d.kind = "race";
  d.location = {"prog", "counter"};
  d.message = "boom";
  d.with_evidence("task_a", "inc0");
  EXPECT_EQ(key(d), "race:prog:counter");
  json::Writer w;
  d.to_json(w);
  const std::string s = w.str();
  EXPECT_NE(s.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(s.find("\"task_a\": \"inc0\""), std::string::npos);
}

TEST(LintDiagnostic, SortErrorsFirstThenLexicographic) {
  Diagnostic note{Severity::kNote, "a", "p", "k", {"u", "e"}, "m", {}};
  Diagnostic warn{Severity::kWarning, "a", "p", "k", {"u", "e"}, "m", {}};
  Diagnostic err_b{Severity::kError, "b", "p", "k", {"u", "e"}, "m", {}};
  Diagnostic err_a{Severity::kError, "a", "p", "k", {"u", "e"}, "m", {}};
  std::vector<Diagnostic> v{note, warn, err_b, err_a};
  sort_diagnostics(v);
  EXPECT_EQ(v[0].subsystem, "a");
  EXPECT_EQ(v[0].severity, Severity::kError);
  EXPECT_EQ(v[1].subsystem, "b");
  EXPECT_EQ(v[2].severity, Severity::kWarning);
  EXPECT_EQ(v[3].severity, Severity::kNote);
}

TEST(LintDiagnostic, JsonSchemaAndDeterminism) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.subsystem = "recoder";
  d.pass = "uninit-dataflow";
  d.kind = "dead-store";
  d.location = {"u", "tmp"};
  d.message = "overwritten";
  const auto j1 = diagnostics_to_json("u", {d});
  const auto j2 = diagnostics_to_json("u", {d});
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"schema\": \"rw-lint-1\""), std::string::npos);
  EXPECT_NE(j1.find("\"warnings\": 1"), std::string::npos);
  EXPECT_NE(j1.find("\"kind\": \"dead-store\""), std::string::npos);
}

// ------------------------------------------------------------ pass manager

TEST(LintPassManager, DefaultPassSetAndRestriction) {
  auto pm = PassManager::with_default_passes();
  EXPECT_EQ(pm.passes().size(), 8u);
  EXPECT_NE(pm.find("static-race"), nullptr);
  EXPECT_NE(pm.find("static-deadlock"), nullptr);
  EXPECT_NE(pm.find("uninit-dataflow"), nullptr);
  EXPECT_NE(pm.find("buffer-bounds"), nullptr);
  EXPECT_NE(pm.find("shared-access"), nullptr);
  EXPECT_NE(pm.find("static-throughput"), nullptr);
  EXPECT_NE(pm.find("static-buffer-size"), nullptr);
  EXPECT_NE(pm.find("static-makespan"), nullptr);
  EXPECT_EQ(pm.find("nope"), nullptr);

  pm.enable_only({"static-race"});
  EXPECT_EQ(pm.passes().size(), 1u);
  EXPECT_EQ(pm.passes()[0]->name(), "static-race");
}

TEST(LintPassManager, InapplicablePassesAreRecordedNotRun) {
  // A bare dataflow-only target: AST and mapped passes must not run.
  const auto corpus = build_corpus();
  const auto& p = corpus_entry(corpus, "starved_csdf");
  const auto result = PassManager::with_default_passes().run(p.target());
  for (const auto& s : result.stats) {
    if (s.pass == "static-race" || s.pass == "uninit-dataflow" ||
        s.pass == "shared-access") {
      EXPECT_FALSE(s.ran) << s.pass;
    }
    if (s.pass == "static-deadlock") {
      EXPECT_TRUE(s.ran);
    }
  }
}

// -------------------------------------------------- corpus: seeded defects

TEST(LintCorpus, EveryInjectedDefectIsFlagged) {
  for (const auto& p : build_corpus()) {
    const auto result = PassManager::with_default_passes().run(p.target());
    const auto found = kinds_of(result.diagnostics);
    for (const auto& kind : p.expected_kinds)
      EXPECT_TRUE(found.count(kind))
          << p.name << ": expected kind '" << kind << "' not found";
    if (p.expected_kinds.empty())
      EXPECT_TRUE(result.clean()) << p.name << " should lint clean";
    else
      EXPECT_GT(result.errors(), 0u)
          << p.name << " must carry at least one error-severity finding";
  }
}

TEST(LintCorpus, CleanProgramHasNoWarningsEither) {
  const auto corpus = build_corpus();
  const auto& p = corpus_entry(corpus, "clean_pipeline");
  const auto result = PassManager::with_default_passes().run(p.target());
  EXPECT_EQ(result.errors(), 0u);
  EXPECT_EQ(result.warnings(), 0u);
}

TEST(LintCorpus, RaceEvidenceNamesBothTasks) {
  const auto corpus = build_corpus();
  const auto& p = corpus_entry(corpus, "racy_counter");
  const auto result = PassManager::with_default_passes().run(p.target());
  bool saw = false;
  for (const auto& d : result.diagnostics) {
    if (d.kind != "race") continue;
    saw = true;
    std::string ev;
    for (const auto& [k, v] : d.evidence) ev += k + "=" + v + ";";
    EXPECT_NE(ev.find("task_a="), std::string::npos);
    EXPECT_NE(ev.find("task_b="), std::string::npos);
  }
  EXPECT_TRUE(saw);
}

TEST(LintCorpus, LockAnnotationSuppressesRace) {
  // clean_pipeline's stats counter is accessed from two partitions but
  // sits in locked_vars: the race pass must degrade it to a note.
  const auto corpus = build_corpus();
  const auto& p = corpus_entry(corpus, "clean_pipeline");
  const auto result = PassManager::with_default_passes().run(p.target());
  bool note_seen = false;
  for (const auto& d : result.diagnostics) {
    if (d.location.entity == "stats") {
      EXPECT_EQ(d.severity, Severity::kNote);
      EXPECT_EQ(d.kind, "lock-protected");
      note_seen = true;
    }
  }
  EXPECT_TRUE(note_seen);
}

TEST(LintCorpus, OrderInversionNeedsTheMapping) {
  // The task graph is acyclic; only the per-PE run-to-completion order
  // closes the cycle. Drop the core order and the deadlock disappears.
  const auto corpus = build_corpus();
  const auto& p = corpus_entry(corpus, "order_inversion");
  auto t = p.target();
  const auto with = PassManager::with_default_passes().run(t);
  EXPECT_TRUE(kinds_of(with.diagnostics).count("deadlock"));

  t.core_order.clear();  // derived order = task index order = prod first
  t.task_to_pe.clear();
  const auto without = PassManager::with_default_passes().run(t);
  EXPECT_FALSE(kinds_of(without.diagnostics).count("deadlock"));
}

TEST(LintCorpus, UninitFindingsPointAtVariables) {
  const auto corpus = build_corpus();
  const auto& p = corpus_entry(corpus, "uninit_filter");
  const auto result = PassManager::with_default_passes().run(p.target());
  std::set<std::string> entities;
  for (const auto& d : result.diagnostics)
    if (d.subsystem == "recoder" && d.pass == "uninit-dataflow")
      entities.insert(d.location.entity);
  EXPECT_TRUE(entities.count("acc"));
  EXPECT_TRUE(entities.count("tmp"));
}

// ---------------------------------------------------------------- adapters

TEST(LintAdapters, RaceReportBecomesDynamicErrorDiagnostic) {
  vpdebug::RaceReport r;
  r.addr = 0x8000'0010;
  r.first_core = sim::CoreId{0};
  r.second_core = sim::CoreId{1};
  r.first_is_write = true;
  r.second_is_write = false;
  const auto d = from_race_report(r, "prog", "frame");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.kind, "race");
  EXPECT_EQ(d.pass, "dynamic");
  EXPECT_EQ(key(d), "race:prog:frame");
}

TEST(LintAdapters, DeadlockReportFansOutPerBlockedActor) {
  dataflow::Graph g;
  const auto a = g.add_actor("alpha", 10);
  const auto b = g.add_actor("beta", 10);
  g.connect(a, b, 1, 1);
  g.connect(b, a, 1, 1);
  const auto rep = dataflow::detect_deadlock(g);
  ASSERT_TRUE(rep.deadlocked);
  const auto diags = from_deadlock_report(rep, "g");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(key(diags[0]), "deadlock:g:alpha");
  EXPECT_EQ(key(diags[1]), "deadlock:g:beta");

  dataflow::Graph ok;
  const auto c = ok.add_actor("c", 10);
  const auto d = ok.add_actor("d", 10);
  ok.connect(c, d, 1, 1);
  EXPECT_TRUE(
      from_deadlock_report(dataflow::detect_deadlock(ok), "ok").empty());
}

TEST(LintAdapters, SharedReportSeverityTracksRecommendation) {
  auto p = recoder::parse_program(R"(
    int buf[8];
    int main() {
      for (int i = 0; i < 8; i = i + 1) { buf[i] = i; }
      for (int i = 0; i < 8; i = i + 1) { buf[i] = buf[i] + 1; }
      for (int i = 0; i < 8; i = i + 1) { buf[i] = buf[i] * 2; }
      return 0;
    })");
  ASSERT_TRUE(p.ok());
  const auto reps = recoder::analyze_shared_accesses(
      p.value(), *p.value().find_function("main"));
  const auto diags = from_shared_report(reps, "u", "main");
  ASSERT_EQ(diags.size(), 1u);
  // kKeepShared -> warning (real synchronization needed on an MPSoC).
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].kind, "shared-access");
}

// ------------------------------------------------------------------ driver

TEST(LintDriver, ArgParsing) {
  auto opts = parse_driver_args(
      {"--json", "--no-files", "--passes=static-race,buffer-bounds",
       "--out=/tmp/x", "racy_counter"});
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts.value().json_stdout);
  EXPECT_FALSE(opts.value().write_files);
  EXPECT_EQ(opts.value().passes.size(), 2u);
  EXPECT_EQ(opts.value().out_dir, "/tmp/x");
  ASSERT_EQ(opts.value().programs.size(), 1u);

  EXPECT_FALSE(parse_driver_args({"--bogus"}).ok());
  EXPECT_FALSE(parse_driver_args({"--help"}).ok());
}

TEST(LintDriver, PassesAcceptSpaceSeparatedLists) {
  // The shell-friendly quoted form: `--passes "a b"` is the same
  // selection as `--passes a,b`.
  auto spaced = parse_driver_args(
      {"--passes", "static-throughput static-makespan"});
  ASSERT_TRUE(spaced.ok());
  auto comma = parse_driver_args({"--passes=static-throughput,static-makespan"});
  ASSERT_TRUE(comma.ok());
  EXPECT_EQ(spaced.value().passes, comma.value().passes);
  EXPECT_EQ(spaced.value().passes.size(), 2u);
  EXPECT_TRUE(spaced.value().passes.count("static-makespan") == 1);
}

TEST(LintDriver, ExitCodesMatchFindings) {
  std::ostringstream sink;
  DriverOptions opts;
  opts.write_files = false;

  opts.programs = {"clean_pipeline"};
  EXPECT_EQ(run_driver(opts, sink).exit_code, 0);

  opts.programs = {"racy_counter"};
  EXPECT_EQ(run_driver(opts, sink).exit_code, 1);

  opts.programs = {"no_such_program"};
  EXPECT_EQ(run_driver(opts, sink).exit_code, 2);

  opts.programs = {"clean_pipeline"};
  opts.passes = {"not-a-pass"};
  EXPECT_EQ(run_driver(opts, sink).exit_code, 2);
}

TEST(LintDriver, WritesPerProgramJsonFile) {
  std::ostringstream sink;
  DriverOptions opts;
  opts.programs = {"token_cycle"};
  opts.out_dir = ::testing::TempDir();
  const auto report = run_driver(opts, sink);
  ASSERT_EQ(report.outcomes.size(), 1u);
  ASSERT_FALSE(report.outcomes[0].json_path.empty());
  std::ifstream f(report.outcomes[0].json_path);
  ASSERT_TRUE(f.good());
  std::stringstream content;
  content << f.rdbuf();
  EXPECT_EQ(content.str(),
            report.outcomes[0].result.to_json() + "\n");
  EXPECT_NE(content.str().find("\"program\": \"token_cycle\""),
            std::string::npos);
}

TEST(LintDriver, JsonOutputByteIdenticalAcrossRuns) {
  DriverOptions opts;
  opts.json_stdout = true;
  opts.write_files = false;
  std::ostringstream a;
  std::ostringstream b;
  run_driver(opts, a);
  run_driver(opts, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"schema\": \"rw-lint-run-1\""),
            std::string::npos);
}

TEST(LintDriver, ListShowsTheWholeCorpus) {
  std::ostringstream out;
  DriverOptions opts;
  opts.list = true;
  EXPECT_EQ(run_driver(opts, out).exit_code, 0);
  for (const auto& p : build_corpus())
    EXPECT_NE(out.str().find(p.name), std::string::npos) << p.name;
}

}  // namespace
}  // namespace rw::lint
