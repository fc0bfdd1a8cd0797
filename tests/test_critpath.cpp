// rw::critpath: dependence-graph invariants, replay exactness, what-if
// accuracy against re-simulated ground truth, the remap adviser's
// never-slower contract, and the allocator placement hints.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "critpath/advise.hpp"
#include "critpath/driver.hpp"
#include "critpath/whatif.hpp"
#include "maps/mapping.hpp"
#include "maps/perf_bounds.hpp"
#include "maps/workloads.hpp"
#include "perf/traceview.hpp"

namespace rw::critpath {
namespace {

/// Every edge goes forward in node order: the builder's acyclicity
/// invariant.
bool edges_go_forward(const DepGraph& g) {
  return std::all_of(g.edges().begin(), g.edges().end(),
                     [](const DepEdge& e) { return e.src < e.dst; });
}

/// Hand-built 3-task pipeline rx -> proc -> tx across two PEs: the
/// smallest graph whose critical path mixes compute and fabric segments.
maps::TaskGraph three_stage() {
  maps::TaskGraph g;
  const auto rx = g.add_task("rx", 10'000);
  const auto proc = g.add_task("proc", 40'000);
  const auto tx = g.add_task("tx", 10'000);
  g.add_edge(rx, proc, 4096);
  g.add_edge(proc, tx, 2048);
  return g;
}

sim::PlatformConfig bus2() { return sim::PlatformConfig::homogeneous(2); }

sim::PlatformConfig mesh4() {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
  cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
  cfg.mesh.width = 2;
  cfg.mesh.height = 2;
  return cfg;
}

// ------------------------------------------------------------- DepGraph

TEST(DepGraph, EmptyTraceYieldsEmptyGraph) {
  const auto view = perf::TraceView::from_events({});
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.makespan(), 0u);
  const DepGraph g = DepGraph::build(view, bus2());
  EXPECT_TRUE(g.empty());
  EXPECT_TRUE(edges_go_forward(g));
  // Analyses on the empty graph are well-defined no-ops.
  const Retimed r = retime(g);
  EXPECT_EQ(r.makespan, 0u);
  const Attribution a = attribute(g, r);
  EXPECT_EQ(a.makespan, 0u);
  EXPECT_TRUE(a.path.empty());
}

TEST(DepGraph, AcyclicAndEdgeConservation) {
  const maps::TaskGraph app = three_stage();
  const std::vector<std::size_t> map{0, 1, 0};
  const DepGraph g = trace_mapping(app, bus2(), map);

  ASSERT_FALSE(g.empty());
  EXPECT_TRUE(edges_go_forward(g));
  // One node per task and per edge; each node consumed exactly two trace
  // events (the traced executor emits nothing else).
  EXPECT_EQ(g.nodes().size(), app.tasks().size() + app.edges().size());
  // Every app edge appears with both endpoints traced: two dependence
  // edges each (producer -> transfer -> consumer).
  EXPECT_EQ(g.dependence_edge_count(), 2 * app.edges().size());
  for (const DepEdge& e : g.edges()) EXPECT_LT(e.src, e.dst);
  // Task identities resolve.
  for (const auto& t : app.tasks())
    EXPECT_NE(g.node_of_task(t.id.value()), kNoNode);
  EXPECT_EQ(g.node_of_task(999), kNoNode);
}

TEST(DepGraph, TraceEventAccounting) {
  // The hand-built pipeline, then every rwcritpath corpus graph with its
  // HEFT mapping on the bus and on the mesh.
  std::vector<CorpusCase> inputs{{three_stage(), bus2(), {0, 1, 0}}};
  for (const bool mesh : {false, true}) {
    CritOptions opts;
    opts.mesh = mesh;
    for (const std::string& name : corpus_names()) {
      auto built = build_corpus_case(name, opts);
      ASSERT_TRUE(built.ok()) << name;
      inputs.push_back(std::move(built.value()));
    }
  }
  for (const CorpusCase& in : inputs) {
    const maps::TaskGraph& app = in.graph;
    sim::PlatformConfig cfg = in.cfg;
    cfg.trace_enabled = true;
    sim::Platform platform(cfg);
    platform.tracer().set_enabled(true);
    const TimePs makespan =
        maps::execute_on_platform_traced(app, in.task_to_pe, platform);
    const auto view =
        perf::TraceView::from_events(platform.tracer().events());
    // The executor emits exactly two events per span, nothing half-open.
    EXPECT_EQ(view.consumed_events(), view.total_events()) << app.name;
    EXPECT_EQ(view.span_count(), app.tasks().size() + app.edges().size())
        << app.name;
    EXPECT_EQ(view.makespan(), makespan) << app.name;
    // Timing is bit-identical to the untraced executor.
    sim::Platform quiet(in.cfg);
    EXPECT_EQ(maps::execute_on_platform(app, in.task_to_pe, quiet), makespan)
        << app.name;
  }
}

TEST(DepGraph, SamePeDependencesSurviveAsLocalTransfers) {
  const maps::TaskGraph app = three_stage();
  // Everything on PE 0: no fabric traffic, yet both edges must survive.
  const DepGraph g = trace_mapping(app, bus2(), {0, 0, 0});
  std::size_t locals = 0;
  for (const Segment& s : g.nodes())
    if (s.kind == SegKind::kTransfer) {
      EXPECT_TRUE(s.local);
      EXPECT_EQ(s.obs_duration(), 0u);
      ++locals;
    }
  EXPECT_EQ(locals, app.edges().size());
  EXPECT_EQ(g.dependence_edge_count(), 2 * app.edges().size());
}

// --------------------------------------------------------------- replay

TEST(Retime, BaselineReproducesObservedTimesExactly) {
  for (const sim::PlatformConfig& cfg : {bus2(), mesh4()}) {
    const maps::TaskGraph app = maps::h264_encoder_taskgraph(3);
    const auto heft = maps::heft_map(app, maps::pes_from_platform(cfg),
                                     maps::comm_cost_from_platform(cfg));
    const DepGraph g = trace_mapping(app, cfg, heft.task_to_pe);
    const Retimed r = retime(g, {}, &app);
    EXPECT_EQ(r.makespan, g.observed_makespan());
    for (const Segment& s : g.nodes()) {
      EXPECT_EQ(r.start[s.id], s.obs_start) << seg_kind_name(s.kind);
      EXPECT_EQ(r.finish[s.id], s.obs_finish) << seg_kind_name(s.kind);
    }
  }
}

TEST(Retime, BaselineReproducesObservedTimesOnAWrappedMesh) {
  // 9 cores on a 4x2 mesh (ArchInfo::cell_like(8)): core 8 wraps onto
  // core 0's node, so transfers between them take a route of no links.
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(9);
  cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
  cfg.mesh.width = 4;
  cfg.mesh.height = 2;
  const maps::TaskGraph pipeline = three_stage();
  const maps::TaskGraph h264 = maps::h264_encoder_taskgraph(3);
  std::vector<std::size_t> spread(h264.tasks().size());
  for (std::size_t i = 0; i < spread.size(); ++i)
    spread[i] = i % 2 == 0 ? 0 : 8 - i % 3;
  const std::pair<const maps::TaskGraph*, std::vector<std::size_t>> cases[] = {
      {&pipeline, {8, 0, 8}}, {&h264, spread}};
  for (const auto& [app, map] : cases) {
    const DepGraph g = trace_mapping(*app, cfg, map);
    const Retimed r = retime(g, {}, app);
    EXPECT_EQ(r.makespan, g.observed_makespan()) << app->name;
    for (const Segment& s : g.nodes()) {
      EXPECT_EQ(r.start[s.id], s.obs_start) << app->name << " " << s.label;
      EXPECT_EQ(r.finish[s.id], s.obs_finish) << app->name << " " << s.label;
    }
  }
}

TEST(Retime, OpsLinearInTraceSize) {
  // The O(trace events) contract in deterministic operation counts: ops
  // per node stays bounded as the trace grows.
  double small_ratio = 0, large_ratio = 0;
  for (const std::uint32_t slices : {2u, 8u}) {
    const maps::TaskGraph app = maps::h264_encoder_taskgraph(slices);
    std::vector<std::size_t> map(app.tasks().size());
    for (std::size_t i = 0; i < map.size(); ++i) map[i] = i % 4;
    const DepGraph g = trace_mapping(app, mesh4(), map);
    const Retimed r = retime(g);
    const double ratio = static_cast<double>(r.ops) /
                         static_cast<double>(g.nodes().size());
    (slices == 2 ? small_ratio : large_ratio) = ratio;
  }
  EXPECT_LE(large_ratio, 2.0 * small_ratio + 8.0);
}

TEST(Attribution, SumsExactlyToMakespanOnPipeline) {
  const maps::TaskGraph app = three_stage();
  const DepGraph g = trace_mapping(app, bus2(), {0, 1, 0});
  const Retimed r = retime(g, {}, &app);
  const Attribution a = attribute(g, r);

  ASSERT_GT(a.makespan, 0u);
  // The binding chain covers the makespan with no gap, by invariant.
  DurationPs sum = 0;
  for (const PathStep& s : a.path) sum += s.contribution;
  EXPECT_EQ(sum, a.makespan);
  EXPECT_EQ(a.idle_ps, 0u);
  EXPECT_EQ(a.compute_ps + a.transfer_ps + a.dma_ps, a.makespan);
  // All three tasks compute on the path (it IS the pipeline), and the
  // cross-PE hops charge the bus.
  EXPECT_EQ(a.by_task.size(), 3u);
  ASSERT_FALSE(a.by_link.empty());
  EXPECT_EQ(a.by_link.front().name, "bus");
  // Per-entity shares are fractions of the makespan.
  for (const Owner& o : a.by_task) {
    EXPECT_GE(o.share, 0.0);
    EXPECT_LE(o.share, 1.0);
  }
}

TEST(Attribution, MeshChargesLinks) {
  maps::TaskGraph g;
  const auto a = g.add_task("a", 1000);
  const auto b = g.add_task("b", 1000);
  g.add_edge(a, b, 64 * 1024);  // heavy: the transfer must be on the path
  const DepGraph dep = trace_mapping(g, mesh4(), {0, 3});  // 2 hops
  const Attribution attr = attribute(dep, retime(dep, {}, &g));
  EXPECT_GT(attr.transfer_ps, 0u);
  std::size_t links = 0;
  for (const Owner& o : attr.by_link)
    if (o.name.rfind("link", 0) == 0) ++links;
  EXPECT_EQ(links, 2u);  // both route hops own part of the makespan
}

// --------------------------------------------------------------- what-if

TEST(WhatIf, SingleEditsPredictResimExactly) {
  const maps::TaskGraph app = maps::h264_encoder_taskgraph(3);
  for (const sim::PlatformConfig& cfg : {bus2(), mesh4()}) {
    const auto heft = maps::heft_map(app, maps::pes_from_platform(cfg),
                                     maps::comm_cost_from_platform(cfg));
    const std::vector<Edit> sweep{
        Edit::faster_core(0, 2.0),       Edit::faster_core(1, 4.0),
        Edit::faster_link(2.0),          Edit::wider_link(2.0),
        Edit::move_task(0, 1),           Edit::move_task(2, 0),
        Edit::remove_dependence(
            app.edges().front().src.value(), app.edges().front().dst.value()),
    };
    for (const Edit& e : sweep) {
      const std::vector<Edit> one{e};
      const Validation v = validate(app, cfg, heft.task_to_pe, one);
      EXPECT_EQ(v.pred.baseline, v.truth.baseline) << e.describe();
      EXPECT_EQ(v.pred.predicted, v.truth.edited) << e.describe();
      EXPECT_LE(v.rel_error, 0.10) << e.describe();  // the stated contract
    }
  }
}

TEST(WhatIf, CompoundEditsStayWithinContract) {
  const maps::TaskGraph app = three_stage();
  const std::vector<Edit> edits{Edit::faster_core(1, 2.0),
                                Edit::move_task(2, 1),
                                Edit::wider_link(4.0)};
  const Validation v = validate(app, bus2(), {0, 1, 0}, edits);
  EXPECT_EQ(v.pred.predicted, v.truth.edited);
  EXPECT_LE(v.rel_error, 0.10);
}

TEST(WhatIf, RemoveDependenceDropsTransferNode) {
  const maps::TaskGraph app = three_stage();
  const DepGraph g = trace_mapping(app, bus2(), {0, 1, 0});
  const std::vector<Edit> edits{Edit::remove_dependence(0, 1)};
  const Retimed r = retime(g, edits, &app);
  std::size_t dropped = 0;
  for (const char d : r.dropped) dropped += d;
  EXPECT_EQ(dropped, 1u);
  EXPECT_LE(r.makespan, retime(g, {}, &app).makespan);
}

TEST(WhatIf, EditDescriptionsAreStable) {
  EXPECT_EQ(Edit::faster_core(2).describe(), "faster-core(pe2, x2.00)");
  EXPECT_EQ(Edit::faster_link(1.5).describe(), "faster-link(x1.50)");
  EXPECT_EQ(Edit::wider_link().describe(), "wider-link(x2.00)");
  EXPECT_EQ(Edit::remove_dependence(3, 7).describe(), "remove-dep(3>7)");
  EXPECT_EQ(Edit::move_task(5, 1).describe(), "move-task(5->pe1)");
}

// ---------------------------------------------------------------- advise

TEST(Advise, NeverSlowerThanBaselineWhenResimulated) {
  CritOptions opts;
  opts.cores = 4;
  for (const std::string& name : corpus_names()) {
    for (const bool mesh : {false, true}) {
      opts.mesh = mesh;
      const auto c = build_corpus_case(name, opts);
      ASSERT_TRUE(c.ok()) << name;
      const RemapAdvice adv = advise_remap(c.value().graph, c.value().cfg,
                                           c.value().task_to_pe, 3);
      EXPECT_LE(adv.resim_makespan, adv.baseline_makespan) << name;
      // The advised mapping's re-simulated makespan is what it claims.
      sim::Platform platform(c.value().cfg);
      EXPECT_EQ(maps::execute_on_platform(c.value().graph, adv.task_to_pe,
                                          platform),
                adv.resim_makespan)
          << name;
      EXPECT_GE(adv.speedup(), 1.0) << name;
    }
  }
}

TEST(Advise, FindsTheObviousMove) {
  // Two independent heavy tasks crammed onto one PE of two: moving one
  // away is the textbook win the hill-climb must find.
  maps::TaskGraph g;
  g.add_task("left", 100'000);
  g.add_task("right", 100'000);
  const RemapAdvice adv = advise_remap(g, bus2(), {0, 0}, 4);
  EXPECT_EQ(adv.moves, 1u);
  EXPECT_FALSE(adv.reverted);
  EXPECT_LT(adv.resim_makespan, adv.baseline_makespan);
  EXPECT_EQ(adv.predicted_makespan, adv.resim_makespan);
  const std::set<std::size_t> used(adv.task_to_pe.begin(),
                                   adv.task_to_pe.end());
  EXPECT_EQ(used.size(), 2u);
}

TEST(Advise, HintsReflectAttribution) {
  CritOptions opts;
  const auto c = build_corpus_case("h264", opts);
  ASSERT_TRUE(c.ok());
  const RemapAdvice adv =
      advise_remap(c.value().graph, c.value().cfg, c.value().task_to_pe, 2);
  EXPECT_FALSE(adv.hints.preferred_pes.empty());
  for (const std::size_t pe : adv.hints.preferred_pes)
    EXPECT_LT(pe, c.value().cfg.cores.size());
  EXPECT_GE(adv.hints.comm_fraction, 0.0);
  EXPECT_LE(adv.hints.comm_fraction, 1.0);
  EXPECT_GE(adv.hints.gang_cores, 1u);
}

// ------------------------------------------------------------ CLI driver

TEST(Driver, ParseArgs) {
  const auto opts = parse_crit_args(
      {"--mesh", "--cores", "8", "--rounds", "2", "--seed", "7", "jpeg"});
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts.value().mesh);
  EXPECT_EQ(opts.value().cores, 8u);
  EXPECT_EQ(opts.value().rounds, 2);
  EXPECT_EQ(opts.value().seed, 7u);
  ASSERT_EQ(opts.value().workloads.size(), 1u);
  EXPECT_EQ(opts.value().workloads.front(), "jpeg");
  EXPECT_FALSE(parse_crit_args({"--bogus"}).ok());
  EXPECT_FALSE(parse_crit_args({"--cores"}).ok());
}

TEST(Driver, ParseRejectsNumbersThatDoNotFit) {
  // Each of these used to narrow silently: 2^64 + 1 -> 1 core, 2^32 + 1
  // -> 1 block or slice, 2^31 -> a negative round count.
  EXPECT_FALSE(parse_crit_args({"--cores", "18446744073709551617"}).ok());
  EXPECT_FALSE(parse_crit_args({"--seed", "18446744073709551617"}).ok());
  EXPECT_FALSE(parse_crit_args({"--blocks", "4294967297"}).ok());
  EXPECT_FALSE(parse_crit_args({"--slices", "4294967296"}).ok());
  EXPECT_FALSE(parse_crit_args({"--rounds", "2147483648"}).ok());
  const auto r = parse_crit_args({"--blocks", "4294967297"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("--blocks"), std::string::npos)
      << r.error().to_string();
  const auto edge = parse_crit_args(
      {"--blocks", "4294967295", "--slices", "1", "--rounds", "2147483647"});
  ASSERT_TRUE(edge.ok()) << edge.error().to_string();
  EXPECT_EQ(edge.value().blocks, 4294967295u);
  EXPECT_EQ(edge.value().rounds, 2147483647);
}

TEST(Driver, ListPrintsCorpus) {
  CritOptions opts;
  opts.list = true;
  std::ostringstream out;
  const CritReport rep = run_critpath(opts, out);
  EXPECT_EQ(rep.exit_code, 0);
  for (const std::string& n : corpus_names())
    EXPECT_NE(out.str().find(n), std::string::npos) << n;
}

TEST(Driver, RunMeetsContractsAndEnvelopesJson) {
  CritOptions opts;
  opts.workloads = {"pipeline3", "h264"};
  opts.write_files = false;
  opts.json_stdout = true;
  std::ostringstream out;
  const CritReport rep = run_critpath(opts, out);
  EXPECT_EQ(rep.exit_code, 0);  // nonzero would mean a contract miss
  ASSERT_EQ(rep.workloads.size(), 2u);
  for (const WorkloadReport& r : rep.workloads) {
    EXPECT_EQ(r.retimed, r.observed);
    for (const WhatIfRow& row : r.whatifs) EXPECT_LE(row.rel_error, 0.10);
    EXPECT_LE(r.advice.resim_makespan, r.advice.baseline_makespan);
  }
  EXPECT_NE(out.str().find("\"schema\": \"rw-tool-1\""), std::string::npos);
  EXPECT_NE(out.str().find("\"tool\": \"rwcritpath\""), std::string::npos);
  // Unknown workloads are a usage error, not a crash.
  CritOptions bad;
  bad.workloads = {"nope"};
  bad.write_files = false;
  std::ostringstream err;
  EXPECT_EQ(run_critpath(bad, err).exit_code, 2);
}

TEST(Driver, JsonOutputIsDeterministic) {
  CritOptions opts;
  opts.workloads = {"pipeline3"};
  opts.write_files = false;
  opts.json_stdout = true;
  std::ostringstream a, b;
  run_critpath(opts, a);
  run_critpath(opts, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"schema\": \"rw-critpath-1\""), std::string::npos);
}

}  // namespace
}  // namespace rw::critpath
