#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "maps/ir.hpp"
#include "maps/partition.hpp"
#include "maps/workloads.hpp"

namespace rw::maps {
namespace {

TEST(Ir, DependenceKinds) {
  SeqProgram p;
  const auto x = p.add_var("x");
  const auto y = p.add_var("y");
  // s0: x = ...; s1: y = f(x); s2: x = g(y)  -> flow s0->s1, flow s1->s2,
  // anti s1->s2 (reads x, then x written), output s0->s2.
  p.add_stmt("s0", 10, {}, {x});
  p.add_stmt("s1", 10, {x}, {y});
  p.add_stmt("s2", 10, {y}, {x});
  const auto deps = p.dependences();

  int flow = 0, anti = 0, output = 0;
  for (const auto& d : deps) {
    switch (d.kind) {
      case DepKind::kFlow: ++flow; break;
      case DepKind::kAnti: ++anti; break;
      case DepKind::kOutput: ++output; break;
    }
  }
  EXPECT_EQ(flow, 2);
  EXPECT_EQ(anti, 1);
  EXPECT_EQ(output, 1);
}

TEST(Ir, FlowDepsCarryBytes) {
  SeqProgram p;
  const auto big = p.add_var("big", 1024);
  p.add_stmt("w", 10, {}, {big});
  p.add_stmt("r", 10, {big}, {});
  const auto deps = p.dependences();
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].bytes, 1024u);
}

TEST(Ir, CriticalPathOfChainEqualsTotal) {
  SeqProgram p;
  const auto v = p.add_var("v");
  p.add_stmt("a", 100, {}, {v});
  p.add_stmt("b", 200, {v}, {v});
  p.add_stmt("c", 300, {v}, {v});
  EXPECT_EQ(p.total_cycles(), 600u);
  EXPECT_EQ(p.critical_path(), 600u);
  EXPECT_DOUBLE_EQ(p.ideal_speedup(), 1.0);
}

TEST(Ir, CriticalPathOfIndependentWork) {
  SeqProgram p;
  for (int i = 0; i < 4; ++i) {
    const auto v = p.add_var(strformat("v%d", i));
    p.add_stmt(strformat("s%d", i), 100, {}, {v});
  }
  EXPECT_EQ(p.critical_path(), 100u);
  EXPECT_DOUBLE_EQ(p.ideal_speedup(), 4.0);
}

TEST(Ir, PeCostFactors) {
  EXPECT_DOUBLE_EQ(pe_cost_factor(StmtKind::kGeneric, sim::PeClass::kRisc),
                   1.0);
  EXPECT_LT(pe_cost_factor(StmtKind::kDspKernel, sim::PeClass::kDsp), 1.0);
  EXPECT_GT(pe_cost_factor(StmtKind::kControl, sim::PeClass::kDsp), 1.0);
}

TEST(Partition, SequentialBaselineIsOneTask) {
  const auto prog = jpeg_encoder_program(4);
  const auto r = sequential_partition(prog);
  EXPECT_EQ(r.graph.tasks().size(), 1u);
  EXPECT_EQ(r.cut_bytes, 0u);
  EXPECT_EQ(r.graph.task(TaskNodeId{0}).ref_cycles, prog.total_cycles());
}

TEST(Partition, PreservesTotalWork) {
  const auto prog = jpeg_encoder_program(8);
  const auto r = partition_program(prog, {4, 1.0});
  EXPECT_EQ(r.graph.total_ref_cycles(), prog.total_cycles());
  EXPECT_EQ(r.stmt_to_task.size(), prog.stmts().size());
}

TEST(Partition, ProducesAcyclicTaskGraph) {
  for (std::size_t k : {2u, 3u, 4u, 8u}) {
    const auto r = partition_program(jpeg_encoder_program(8),
                                     {k, 1.0});
    EXPECT_TRUE(r.graph.is_acyclic()) << "k=" << k;
    EXPECT_LE(r.graph.tasks().size(), k + 1);  // SCC merge may reduce
  }
}

TEST(Partition, BalancesLoadAcrossTasks) {
  const auto prog = jpeg_encoder_program(16);
  const auto r = partition_program(prog, {4, 0.2});
  ASSERT_GE(r.graph.tasks().size(), 2u);
  Cycles max_t = 0, min_t = UINT64_MAX;
  for (const auto& t : r.graph.tasks()) {
    max_t = std::max(max_t, t.ref_cycles);
    min_t = std::min(min_t, t.ref_cycles);
  }
  // Within 3x of each other (greedy balance on a lumpy program).
  EXPECT_LT(static_cast<double>(max_t),
            3.0 * static_cast<double>(std::max<Cycles>(min_t, 1)));
}

TEST(Partition, BoundSpeedupShapes) {
  const auto prog = jpeg_encoder_program(16);
  const auto seq = sequential_partition(prog);
  EXPECT_DOUBLE_EQ(seq.bound_speedup(8), 1.0);  // one task can't speed up
  const auto par = partition_program(prog, {8, 1.0});
  EXPECT_GT(par.bound_speedup(8), 1.5);
  // More PEs never hurt the bound.
  EXPECT_GE(par.bound_speedup(8), par.bound_speedup(2));
}

TEST(Partition, CommWeightReducesCut) {
  const auto prog = jpeg_encoder_program(16);
  const auto loose = partition_program(prog, {8, 0.0});
  const auto tight = partition_program(prog, {8, 8.0});
  EXPECT_LE(tight.cut_bytes, loose.cut_bytes);
}

TEST(Partition, JpegIdealSpeedupIsSubstantial) {
  // The paper: "Initial case studies on partitioning applications like
  // JPEG encoder indicate promising speedup results".
  const auto prog = jpeg_encoder_program(16);
  EXPECT_GT(prog.ideal_speedup(), 4.0);
}

TEST(Workloads, MixedProgramHasBothKinds) {
  const auto prog = mixed_kind_program(4);
  bool has_ctrl = false, has_dsp = false;
  for (const auto& s : prog.stmts()) {
    has_ctrl |= s.kind == StmtKind::kControl;
    has_dsp |= s.kind == StmtKind::kDspKernel;
  }
  EXPECT_TRUE(has_ctrl);
  EXPECT_TRUE(has_dsp);
}

}  // namespace
}  // namespace rw::maps
