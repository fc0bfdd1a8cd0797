#include "lint/corpus.hpp"

#include <algorithm>

#include "recoder/parser.hpp"
#include "sim/platform.hpp"

namespace rw::lint {

Target CorpusProgram::target() const {
  Target t;
  t.name = name;
  if (has_program) t.program = &program;
  if (has_mapped) {
    t.seq = &seq;
    t.task_graph = &tasks;
    t.stmt_to_task = stmt_to_task;
    t.task_to_pe = task_to_pe;
    t.core_order = core_order;
    t.locked_vars = locked_vars;
  }
  if (has_graph) {
    t.dataflow = &graph;
    t.dataflow_cfg = graph_cfg;
  }
  if (has_platform) t.platform = &platform;
  return t;
}

namespace {

// ------------------------------------------------------- corpus programs

/// Two partitions increment one shared counter with nothing ordering
/// them: the canonical lost-update race (vpdebug's RacyCounter victim,
/// expressed as a mapped program).
CorpusProgram make_racy_counter() {
  CorpusProgram p;
  p.name = "racy_counter";
  p.summary = "two unsynchronized partitions RMW one shared counter";
  p.expected_kinds = {"race"};
  const auto counter = p.seq.add_var("counter", 8);
  p.seq.add_stmt("inc0_rmw", 150, {counter}, {counter});
  p.seq.add_stmt("inc1_rmw", 150, {counter}, {counter});
  p.tasks.name = p.name;
  p.tasks.add_task("inc0", 150);
  p.tasks.add_task("inc1", 150);
  p.stmt_to_task = {0, 1};
  p.task_to_pe = {0, 1};
  p.has_mapped = true;
  return p;
}

/// A producer feeds an encoder through a proper channel, but the display
/// partition reads the frame with no channel at all — the forgotten-edge
/// defect the Source Recoder's report exists to surface.
CorpusProgram make_racy_frame() {
  CorpusProgram p;
  p.name = "racy_frame";
  p.summary = "display reads the frame produce writes, with no channel";
  p.expected_kinds = {"race"};
  const auto frame = p.seq.add_var("frame", 64);
  const auto coeff = p.seq.add_var("coeff", 8);
  const auto out = p.seq.add_var("out", 64);
  p.seq.add_stmt("produce_frame", 220, {coeff}, {frame});
  p.seq.add_stmt("encode_frame", 260, {frame, coeff}, {out});
  p.seq.add_stmt("display_frame", 180, {frame}, {});
  p.tasks.name = p.name;
  const auto produce = p.tasks.add_task("produce", 220);
  const auto encode = p.tasks.add_task("encode", 260);
  p.tasks.add_task("display", 180);
  p.tasks.add_edge(produce, encode, 64);  // the one channel that exists
  p.stmt_to_task = {0, 1, 2};
  p.task_to_pe = {0, 1, 2};
  p.has_mapped = true;
  return p;
}

/// Classic wait cycle: ping blocks on pong's token and vice versa. No
/// initial data anywhere on the cycle, so neither can ever start.
CorpusProgram make_token_cycle() {
  CorpusProgram p;
  p.name = "token_cycle";
  p.summary = "two tasks each block on the other's channel first";
  p.expected_kinds = {"deadlock"};
  const auto a = p.seq.add_var("a", 8);
  const auto b = p.seq.add_var("b", 8);
  p.seq.add_stmt("ping_work", 200, {a}, {a});
  p.seq.add_stmt("pong_work", 200, {b}, {b});
  p.tasks.name = p.name;
  const auto ping = p.tasks.add_task("ping", 200);
  const auto pong = p.tasks.add_task("pong", 200);
  p.tasks.add_edge(ping, pong, 8);
  p.tasks.add_edge(pong, ping, 8);
  p.stmt_to_task = {0, 1};
  p.task_to_pe = {0, 1};
  p.has_mapped = true;
  return p;
}

/// The mapping-induced deadlock: the task graph is acyclic, but the
/// chosen PE order runs the consumer before its producer on the same
/// core. The blocking wait for the token then starves the producer of
/// the core forever — invisible to a graph-only check, caught by the
/// order-graph analysis.
CorpusProgram make_order_inversion() {
  CorpusProgram p;
  p.name = "order_inversion";
  p.summary = "consumer scheduled before its producer on one PE";
  p.expected_kinds = {"deadlock"};
  const auto buf = p.seq.add_var("buf", 16);
  p.seq.add_stmt("prod_fill", 180, {}, {buf});
  p.seq.add_stmt("cons_drain", 180, {buf}, {});
  p.tasks.name = p.name;
  const auto prod = p.tasks.add_task("prod", 180);
  const auto cons = p.tasks.add_task("cons", 180);
  p.tasks.add_edge(prod, cons, 16);
  p.stmt_to_task = {0, 1};
  p.task_to_pe = {0, 0};
  p.core_order = {{cons.index(), prod.index()}};  // the inversion
  p.has_mapped = true;
  return p;
}

/// Mini-C with a read of a never-assigned local, a store that is
/// overwritten before any read, and a branch-dependent initialization.
CorpusProgram make_uninit_filter() {
  CorpusProgram p;
  p.name = "uninit_filter";
  p.summary = "uninitialized read, dead store, maybe-uninitialized read";
  p.expected_kinds = {"uninitialized-read", "dead-store",
                      "possibly-uninitialized"};
  static const char* kSource = R"(
    int filter(int x) {
      int acc;
      int scale = 3;
      int tmp = acc + x;
      tmp = x * scale;
      return tmp;
    }
    int risky(int flag) {
      int v;
      if (flag > 0) { v = 1; }
      return v;
    }
  )";
  p.program = recoder::parse_program(kSource).take();
  p.has_program = true;
  return p;
}

/// Everything done right: channels order the pipeline, the genuinely
/// concurrent counter is semaphore-protected, the mini-C is initialized,
/// and the dataflow graph is consistent with a sustainable period. rwlint
/// must exit 0 here.
CorpusProgram make_clean_pipeline() {
  CorpusProgram p;
  p.name = "clean_pipeline";
  p.summary = "channel-ordered pipeline + lock-protected stats counter";
  const auto buf = p.seq.add_var("buf", 32);
  const auto res = p.seq.add_var("res", 32);
  const auto stats = p.seq.add_var("stats", 8);
  p.seq.add_stmt("stage1_fill", 200, {}, {buf});
  p.seq.add_stmt("stage1_count", 80, {stats}, {stats});
  p.seq.add_stmt("stage2_use", 200, {buf}, {res});
  p.seq.add_stmt("audit_count", 80, {stats}, {stats});
  p.tasks.name = p.name;
  const auto stage1 = p.tasks.add_task("stage1", 280);
  const auto stage2 = p.tasks.add_task("stage2", 200);
  p.tasks.add_task("audit", 80);
  p.tasks.add_edge(stage1, stage2, 32);
  p.stmt_to_task = {0, 0, 1, 2};
  p.task_to_pe = {0, 1, 2};
  p.locked_vars = {"stats"};
  p.has_mapped = true;

  static const char* kSource = R"(
    int smooth(int x) {
      int acc = 0;
      int i;
      for (i = 0; i < 4; i = i + 1) {
        acc = acc + x;
      }
      return acc;
    }
  )";
  p.program = recoder::parse_program(kSource).take();
  p.has_program = true;

  const auto src = p.graph.add_actor("src", 100);
  const auto mid = p.graph.add_actor("mid", 120);
  const auto snk = p.graph.add_actor("snk", 100);
  p.graph.connect(src, mid, 1, 1);
  p.graph.connect(mid, snk, 1, 1);
  p.has_graph = true;
  return p;
}

/// CSDF cycle with too few circulating tokens (the dataflow-side seeded
/// deadlock): decidable at design time by abstract execution.
CorpusProgram make_starved_csdf() {
  CorpusProgram p;
  p.name = "starved_csdf";
  p.summary = "multirate CSDF cycle short of tokens";
  p.expected_kinds = {"deadlock"};
  const auto src = p.graph.add_actor("src", 100);
  const auto a = p.graph.add_actor("stage_a", 120);
  const auto b = p.graph.add_actor("stage_b", 120);
  p.graph.connect(src, a, 1, 1);
  p.graph.connect(a, b, std::vector<std::uint32_t>{3},
                  std::vector<std::uint32_t>{3}, 0, "fwd");
  // Needs 3 tokens to fire, only 2 circulate.
  p.graph.connect(b, a, std::vector<std::uint32_t>{3},
                  std::vector<std::uint32_t>{3}, 2, "back");
  p.has_graph = true;
  return p;
}

/// A correctly channel-ordered two-stage chain whose annotated deadline
/// undercuts the static makespan bound: no defect a dynamic run could
/// observe, but feasibility is statically unprovable — exactly the
/// finding the makespan contract exists to surface before simulation.
CorpusProgram make_tight_deadline() {
  CorpusProgram p;
  p.name = "tight_deadline";
  p.summary = "clean two-stage chain with a statically unprovable deadline";
  p.expected_kinds = {"deadline-unprovable"};
  const auto in = p.seq.add_var("in", 32);
  const auto out = p.seq.add_var("out", 32);
  p.seq.add_stmt("grab_fill", 6000, {}, {in});
  p.seq.add_stmt("proc_use", 6000, {in}, {out});
  p.tasks.name = p.name;
  const auto grab = p.tasks.add_task("grab", 6000);
  const auto proc = p.tasks.add_task("proc", 6000);
  p.tasks.add_edge(grab, proc, 256);
  p.stmt_to_task = {0, 1};
  p.task_to_pe = {0, 1};
  // Work alone is 2 x 6000 cycles @ 400 MHz = 30 ns; the cross-PE bus
  // transfer adds ~180 ns more. 100 ns cannot be statically guaranteed.
  p.tasks.annotation.deadline = nanoseconds(100);
  p.tasks.annotation.criticality = sched::Criticality::kHard;
  p.has_mapped = true;
  return p;
}

/// The dynamic twin runs mapped programs on homogeneous(max(pes, 2));
/// give the static makespan contract the same machine to bound.
void attach_platform(CorpusProgram& p) {
  if (!p.has_mapped) return;
  std::size_t pes = 0;
  for (const auto pe : p.task_to_pe) pes = std::max(pes, pe + 1);
  pes = std::max(pes, p.core_order.size());
  p.platform = sim::PlatformConfig::homogeneous(std::max<std::size_t>(
      pes, 2));
  p.has_platform = true;
}

}  // namespace

std::vector<CorpusProgram> build_corpus() {
  std::vector<CorpusProgram> c;
  c.push_back(make_racy_counter());
  c.push_back(make_racy_frame());
  c.push_back(make_token_cycle());
  c.push_back(make_order_inversion());
  c.push_back(make_uninit_filter());
  c.push_back(make_clean_pipeline());
  c.push_back(make_starved_csdf());
  c.push_back(make_tight_deadline());
  for (auto& p : c) attach_platform(p);
  return c;
}

}  // namespace rw::lint
