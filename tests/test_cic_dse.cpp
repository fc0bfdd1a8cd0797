#include <gtest/gtest.h>

#include "cic/dse.hpp"
#include "common/strings.hpp"

namespace rw::cic {
namespace {

CicProgram parallel_app(std::uint32_t branches = 3) {
  CicProgram p("fanout");
  std::vector<std::string> outs;
  for (std::uint32_t b = 0; b < branches; ++b)
    outs.push_back(strformat("o%u", b));
  const auto src = p.add_task("src", 2'000, {}, outs);
  p.set_period(src, microseconds(600));
  std::vector<std::string> ins;
  for (std::uint32_t b = 0; b < branches; ++b)
    ins.push_back(strformat("i%u", b));
  const auto snk = p.add_task("snk", 3'000, ins, {});
  for (std::uint32_t b = 0; b < branches; ++b) {
    const auto w = p.add_task("work" + std::to_string(b), 120'000, {"in"},
                              {"out"});
    p.connect(src, strformat("o%u", b), w, "in", 1024);
    p.connect(w, "out", snk, strformat("i%u", b), 512);
  }
  return p;
}

TEST(Dse, AreaModelMonotoneInCores) {
  EXPECT_LT(architecture_area(ArchInfo::smp_like(2)),
            architecture_area(ArchInfo::smp_like(6)));
  // A DSP-heavy cell-like machine is bigger per core than a small SMP.
  EXPECT_GT(architecture_area(ArchInfo::cell_like(4)),
            architecture_area(ArchInfo::smp_like(2)));
}

TEST(Dse, DefaultCandidatesCoverBothStyles) {
  const auto cands = default_candidates(4);
  EXPECT_EQ(cands.size(), 8u);
  int dist = 0, shared = 0;
  for (const auto& c : cands) {
    dist += c.style == MemoryStyle::kDistributed;
    shared += c.style == MemoryStyle::kShared;
  }
  EXPECT_EQ(dist, 4);
  EXPECT_EQ(shared, 4);
}

TEST(Dse, ExploresAndMarksPareto) {
  const auto prog = parallel_app(3);
  const auto points =
      explore_architectures(prog, default_candidates(4), {20, false});
  ASSERT_EQ(points.size(), 8u);

  int feasible = 0, pareto = 0;
  for (const auto& p : points) {
    feasible += p.feasible;
    pareto += p.pareto;
    if (p.pareto) {
      EXPECT_TRUE(p.feasible);
    }
  }
  EXPECT_EQ(feasible, 8);
  EXPECT_GE(pareto, 1);
  EXPECT_LT(pareto, 8);  // something must be dominated

  // No Pareto point is dominated by any feasible point.
  for (const auto& p : points) {
    if (!p.pareto) continue;
    for (const auto& q : points) {
      if (!q.feasible || &q == &p) continue;
      const bool dominates = q.area_cost <= p.area_cost &&
                             q.makespan() <= p.makespan() &&
                             (q.area_cost < p.area_cost ||
                              q.makespan() < p.makespan());
      EXPECT_FALSE(dominates)
          << q.arch.name << " dominates " << p.arch.name;
    }
  }
}

TEST(Dse, MoreCoresNeverHurtMakespanWithinStyle) {
  const auto prog = parallel_app(4);
  std::vector<ArchInfo> smps;
  for (std::size_t n : {1u, 2u, 4u, 8u}) smps.push_back(ArchInfo::smp_like(n));
  const auto points = explore_architectures(prog, smps, {20, false});
  for (std::size_t i = 1; i < points.size(); ++i) {
    ASSERT_TRUE(points[i].feasible);
    EXPECT_LE(points[i].makespan(),
              points[i - 1].makespan() + points[i - 1].makespan() / 20);
  }
}

TEST(Dse, OptimizedMappingNeverWorseStatically) {
  const auto prog = parallel_app(3);
  const auto arch = ArchInfo::smp_like(3);
  const auto a = CicMapping::automatic(prog, arch);
  const auto o = CicMapping::optimized(prog, arch, 5, 600);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(o.ok());
  // Both valid mappings over the same PEs.
  EXPECT_EQ(a.value().task_to_pe.size(), o.value().task_to_pe.size());
  auto ta = TargetProgram::translate(prog, arch, a.value());
  auto to = TargetProgram::translate(prog, arch, o.value());
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(to.ok());
  // And identical computed outputs, of course.
  EXPECT_EQ(ta.value().run(10).sink_outputs,
            to.value().run(10).sink_outputs);
}

TEST(Dse, InfeasibleCandidatesReported) {
  // A program with a hard PE preference no candidate can satisfy still
  // maps (preferences are soft in the mapper), so force infeasibility via
  // an invalid program instead: unconnected port.
  CicProgram broken("broken");
  broken.add_task("a", 100, {}, {"out"});
  const auto points =
      explore_architectures(broken, default_candidates(2), {5, false});
  for (const auto& p : points) {
    EXPECT_FALSE(p.feasible);
    EXPECT_FALSE(p.pareto);
  }
}

}  // namespace
}  // namespace rw::cic
