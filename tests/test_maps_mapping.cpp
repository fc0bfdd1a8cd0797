#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "maps/concurrency.hpp"
#include "maps/mapping.hpp"
#include "maps/osip.hpp"
#include "maps/partition.hpp"
#include "maps/perf_bounds.hpp"
#include "maps/workloads.hpp"

namespace rw::maps {
namespace {

std::vector<PeDesc> homogeneous_pes(std::size_t n) {
  return std::vector<PeDesc>(n, PeDesc{sim::PeClass::kRisc, mhz(400)});
}

CommCost cheap_comm() { return simple_comm_cost(nanoseconds(100), 0.004); }

TEST(Heft, SingleTaskTrivial) {
  TaskGraph g;
  g.add_task("only", 1000);
  const auto m = heft_map(g, homogeneous_pes(4), cheap_comm());
  EXPECT_EQ(m.makespan, cycles_to_ps(1000, mhz(400)));
  EXPECT_EQ(m.slots.size(), 1u);
}

TEST(Heft, ForkJoinUsesMultiplePes) {
  TaskGraph g;
  const auto src = g.add_task("src", 100);
  const auto join = g.add_task("join", 100);
  for (int i = 0; i < 4; ++i) {
    const auto t = g.add_task("mid" + std::to_string(i), 10'000);
    g.add_edge(src, t, 64);
    g.add_edge(t, join, 64);
  }
  const auto m = heft_map(g, homogeneous_pes(4), cheap_comm());
  std::set<std::size_t> used(m.task_to_pe.begin(), m.task_to_pe.end());
  EXPECT_GE(used.size(), 3u);
  const auto seq = best_sequential_time(g, homogeneous_pes(4));
  EXPECT_GT(m.speedup_vs(seq), 2.0);
}

TEST(Heft, RespectsDependences) {
  const auto part = partition_program(jpeg_encoder_program(8), {4, 1.0});
  const auto m = heft_map(part.graph, homogeneous_pes(4), cheap_comm());
  // Every edge: consumer starts after producer finishes.
  std::vector<TimePs> start(part.graph.tasks().size()),
      finish(part.graph.tasks().size());
  for (const auto& s : m.slots) {
    start[s.task.index()] = s.start;
    finish[s.task.index()] = s.finish;
  }
  for (const auto& e : part.graph.edges())
    EXPECT_GE(start[e.dst.index()], finish[e.src.index()]);
}

TEST(Heft, PreferredPeHonoured) {
  TaskGraph g;
  const auto a = g.add_task("dsp_task", 1000);
  g.task(a).preferred_pe = sim::PeClass::kDsp;
  std::vector<PeDesc> pes{{sim::PeClass::kRisc, mhz(400)},
                          {sim::PeClass::kDsp, mhz(300)}};
  const auto m = heft_map(g, pes, cheap_comm());
  EXPECT_EQ(m.task_to_pe[0], 1u);
}

TEST(Heft, UnsatisfiablePreferenceFallsBack) {
  TaskGraph g;
  const auto a = g.add_task("t", 1000);
  g.task(a).preferred_pe = sim::PeClass::kAccel;
  const auto m = heft_map(g, homogeneous_pes(2), cheap_comm());
  EXPECT_LT(m.task_to_pe[0], 2u);  // mapped anyway
}

TEST(Heft, HeterogeneousPlacementUsesFastPe) {
  // A DSP-friendly task graph should land mostly on DSPs.
  auto g = h264_encoder_taskgraph(2);
  std::vector<PeDesc> pes{{sim::PeClass::kRisc, mhz(400)},
                          {sim::PeClass::kDsp, mhz(400)},
                          {sim::PeClass::kDsp, mhz(400)}};
  const auto m = heft_map(g, pes, cheap_comm());
  int on_dsp = 0;
  for (std::size_t t = 0; t < g.tasks().size(); ++t)
    if (pes[m.task_to_pe[t]].cls == sim::PeClass::kDsp) ++on_dsp;
  EXPECT_GT(on_dsp, static_cast<int>(g.tasks().size()) / 2);
}

TEST(Heft, MoreCoresNeverSlower) {
  const auto part = partition_program(jpeg_encoder_program(16), {8, 1.0});
  TimePs prev = UINT64_MAX;
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    const auto m = heft_map(part.graph, homogeneous_pes(n), cheap_comm());
    EXPECT_LE(m.makespan, prev + prev / 10);  // allow tiny heuristic noise
    prev = m.makespan;
  }
}

TEST(Anneal, NeverWorseThanHeft) {
  const auto part = partition_program(jpeg_encoder_program(8), {6, 1.0});
  std::vector<PeDesc> pes{{sim::PeClass::kRisc, mhz(400)},
                          {sim::PeClass::kRisc, mhz(400)},
                          {sim::PeClass::kDsp, mhz(300)}};
  const auto h = heft_map(part.graph, pes, cheap_comm());
  const auto a = anneal_map(part.graph, pes, cheap_comm(), 7, 800);
  EXPECT_LE(a.makespan, h.makespan);
}

TEST(Anneal, DeterministicForSeed) {
  const auto part = partition_program(jpeg_encoder_program(8), {6, 1.0});
  const auto pes = homogeneous_pes(3);
  const auto a = anneal_map(part.graph, pes, cheap_comm(), 11, 500);
  const auto b = anneal_map(part.graph, pes, cheap_comm(), 11, 500);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.task_to_pe, b.task_to_pe);
}

TEST(Dynamic, CompletesAllTasks) {
  const auto g = h264_encoder_taskgraph(3);
  const auto m = dynamic_schedule(g, homogeneous_pes(4), cheap_comm());
  EXPECT_EQ(m.slots.size(), g.tasks().size());
  EXPECT_GT(m.makespan, 0u);
}

TEST(Dynamic, RespectsDependences) {
  const auto g = h264_encoder_taskgraph(2);
  const auto m = dynamic_schedule(g, homogeneous_pes(3), cheap_comm());
  std::vector<TimePs> start(g.tasks().size()), finish(g.tasks().size());
  for (const auto& s : m.slots) {
    start[s.task.index()] = s.start;
    finish[s.task.index()] = s.finish;
  }
  for (const auto& e : g.edges())
    EXPECT_GE(start[e.dst.index()], finish[e.src.index()]);
}

TEST(Mapping, ExecuteOnPlatformMatchesEstimateShape) {
  const auto part = partition_program(jpeg_encoder_program(8), {4, 1.0});
  const auto pes = homogeneous_pes(4);
  const auto m = heft_map(part.graph, pes, cheap_comm());

  sim::Platform platform(sim::PlatformConfig::homogeneous(4, mhz(400)));
  const TimePs measured =
      execute_on_platform(part.graph, m.task_to_pe, platform);
  // The platform has real contention, so measured >= some fraction of the
  // estimate and not wildly larger.
  EXPECT_GT(measured, m.makespan / 2);
  EXPECT_LT(measured, m.makespan * 3);
}

TEST(Mapping, CommCostEqualsFabricNominalLatency) {
  // The planner's cost model and the live fabric's uncontended latency are
  // one formula: every core pair, every size, bus and mesh, including a
  // mesh where several cores share a node.
  const auto mesh = [](std::size_t cores, std::uint32_t w, std::uint32_t h) {
    sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(cores);
    cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
    cfg.mesh.width = w;
    cfg.mesh.height = h;
    return cfg;
  };
  for (const sim::PlatformConfig& cfg :
       {sim::PlatformConfig::homogeneous(4), mesh(4, 2, 2), mesh(6, 3, 2),
        mesh(6, 2, 2)}) {
    sim::Platform platform(cfg);
    const CommCost comm = comm_cost_from_platform(cfg);
    for (std::uint32_t s = 0; s < cfg.cores.size(); ++s)
      for (std::uint32_t d = 0; d < cfg.cores.size(); ++d)
        for (const std::uint64_t b : {0u, 1u, 7u, 64u, 4096u}) {
          const DurationPs want =
              s == d ? 0
                     : platform.interconnect().nominal_latency(
                           sim::CoreId{s}, sim::CoreId{d}, b);
          EXPECT_EQ(comm(s, d, b), want)
              << platform.interconnect().describe() << " " << s << "->" << d
              << " " << b << "B";
        }
  }
}

TEST(Mapping, CyclicGraphRejected) {
  TaskGraph g;
  const auto a = g.add_task("a", 10);
  const auto b = g.add_task("b", 10);
  g.add_edge(a, b, 1);
  g.add_edge(b, a, 1);
  EXPECT_THROW(heft_map(g, homogeneous_pes(2), cheap_comm()),
               std::invalid_argument);
}

TEST(Concurrency, WorstCaseClique) {
  ConcurrencyGraph cg;
  const auto mp3 = cg.add_app("mp3", 0.2);
  const auto call = cg.add_app("call", 0.5);
  const auto video = cg.add_app("video", 0.9);
  const auto sync = cg.add_app("sync", 0.3);
  // mp3 can overlap call and sync; video overlaps sync only.
  cg.add_conflict(mp3, call);
  cg.add_conflict(mp3, sync);
  cg.add_conflict(video, sync);
  cg.add_conflict(call, sync);
  const auto wc = cg.worst_case_load();
  // Heaviest clique: {video, sync} = 1.2? vs {mp3, call, sync} = 1.0.
  EXPECT_NEAR(wc.load, 1.2, 1e-9);
  EXPECT_EQ(wc.clique.size(), 2u);
}

TEST(Concurrency, SingleAppWorstCase) {
  ConcurrencyGraph cg;
  cg.add_app("solo", 0.7);
  EXPECT_NEAR(cg.worst_case_load().load, 0.7, 1e-12);
  EXPECT_EQ(cg.cores_needed(0.5), 2u);
}

TEST(Concurrency, CompleteGraphSumsEverything) {
  ConcurrencyGraph cg;
  for (int i = 0; i < 5; ++i) cg.add_app(strformat("a%d", i), 0.4);
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j) cg.add_conflict(i, j);
  EXPECT_NEAR(cg.worst_case_load().load, 2.0, 1e-9);
  EXPECT_EQ(cg.cores_needed(1.0), 2u);
}

TEST(Osip, LowerOverheadThanRisc) {
  const auto r = simulate_dispatch(1000, 5'000, 8, mhz(400),
                                   risc_dispatcher());
  const auto o = simulate_dispatch(1000, 5'000, 8, mhz(400),
                                   osip_dispatcher());
  EXPECT_LT(o.makespan, r.makespan);
  EXPECT_GT(o.pe_utilization, r.pe_utilization);
  EXPECT_LT(o.dispatch_overhead, r.dispatch_overhead);
}

TEST(Osip, FineGrainAmplifiesTheGap) {
  // The Sec. IV claim: OSIP "enable[s] higher PE utilization via more
  // fine-grained tasks".
  auto gap_at = [](Cycles grain) {
    const auto r = simulate_dispatch(2000, grain, 8, mhz(400),
                                     risc_dispatcher());
    const auto o = simulate_dispatch(2000, grain, 8, mhz(400),
                                     osip_dispatcher());
    return o.pe_utilization - r.pe_utilization;
  };
  EXPECT_GT(gap_at(500), gap_at(50'000));
  EXPECT_GT(gap_at(500), 0.3);  // the gap is dramatic at fine grain
}

TEST(Osip, CoarseGrainBothFine) {
  const auto r = simulate_dispatch(100, 1'000'000, 4, mhz(400),
                                   risc_dispatcher());
  EXPECT_GT(r.pe_utilization, 0.9);
}

TEST(Osip, EmptyInputs) {
  const auto r = simulate_dispatch(0, 1000, 4, mhz(400), risc_dispatcher());
  EXPECT_EQ(r.makespan, 0u);
  EXPECT_EQ(simulate_dispatch(10, 1000, 0, mhz(400), risc_dispatcher())
                .makespan,
            0u);
}

}  // namespace
}  // namespace rw::maps
