// Property sweeps for the static performance contracts (ISSUE 7):
// randomly generated consistent CSDF graphs and randomly mapped task
// graphs on random platform configs must respect the conservativeness
// contract that the hand-built corpus tests check pointwise —
//
//   * the guaranteed period is schedulable and >= the measured minimal
//     sustainable period,
//   * the static buffer capacities run deadlock-free dynamically,
//   * the static makespan bound dominates the list-scheduler estimate
//     and the contended platform replay, for bus and mesh fabrics.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/throughput.hpp"
#include "lint/perf_contract.hpp"
#include "maps/mapping.hpp"
#include "maps/perf_bounds.hpp"
#include "maps/taskgraph.hpp"
#include "sim/platform.hpp"

namespace rw::lint {
namespace {

/// Random *consistent* CSDF chain with an optional token-primed back
/// edge. Per-actor cycle counts q are drawn first and the edge rates are
/// derived from them (prod = q_dst/g, cons = q_src/g, g = gcd), so the
/// balance equations hold by construction and rv.cycles == q. Source and
/// sink keep q = 1, satisfying the static scheduler's boundary condition.
dataflow::Graph random_csdf(Rng& rng, std::vector<std::uint64_t>& q_out) {
  const std::size_t n = 4 + rng.next_below(3);  // 4..6 actors
  std::vector<std::uint64_t> q(n, 1);
  for (std::size_t i = 1; i + 1 < n; ++i) q[i] = 1 + rng.next_below(3);

  dataflow::Graph g;
  std::vector<dataflow::ActorId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    ids.push_back(g.add_actor(strformat("a%zu", i),
                              100 + rng.next_below(1900),
                              rng.next_below(3)));
  auto rates = [&q](std::size_t src, std::size_t dst) {
    const std::uint64_t gg = std::gcd(q[src], q[dst]);
    return std::pair<std::uint32_t, std::uint32_t>{
        static_cast<std::uint32_t>(q[dst] / gg),
        static_cast<std::uint32_t>(q[src] / gg)};
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const auto [prod, cons] = rates(i, i + 1);
    g.connect(ids[i], ids[i + 1], prod, cons);
  }
  // Back edge j -> i primed with one iteration's consumption: the
  // consumer completes a full iteration before needing any production,
  // so the cycle cannot deadlock.
  if (rng.next_bool(0.6)) {
    const std::size_t i = 1 + rng.next_below(n - 3);
    const std::size_t j = i + 1 + rng.next_below(n - 2 - i);
    const auto [prod, cons] = rates(j, i);
    g.connect(ids[j], ids[i], prod, cons,
              static_cast<std::uint32_t>(q[i] * cons));
  }
  q_out = q;
  return g;
}

/// Random mapped task DAG (forward edges only) plus a random platform:
/// 2..4 homogeneous cores behind a shared bus or a 2x2 mesh.
struct RandomMapped {
  maps::TaskGraph graph;
  std::vector<std::size_t> task_to_pe;
  sim::PlatformConfig platform;
};

RandomMapped random_mapped(Rng& rng) {
  RandomMapped m;
  m.graph.name = "prop";
  const std::size_t n = 4 + rng.next_below(5);  // 4..8 tasks
  std::vector<maps::TaskNodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    ids.push_back(m.graph.add_task(strformat("t%zu", i),
                                   500 + rng.next_below(19'500)));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (j == i + 1 || rng.next_bool(0.35))
        m.graph.add_edge(ids[i], ids[j], 64 + rng.next_below(4'032));

  const std::size_t cores = 2 + rng.next_below(3);  // 2..4
  m.platform = sim::PlatformConfig::homogeneous(cores);
  if (rng.next_bool(0.5)) {
    m.platform.interconnect = sim::PlatformConfig::Icn::kMesh;
    m.platform.mesh.width = 2;
    m.platform.mesh.height = 2;
  }
  m.task_to_pe.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    m.task_to_pe[i] = rng.next_below(cores);
  return m;
}

class PerfProperty : public ::testing::TestWithParam<int> {};

TEST_P(PerfProperty, PeriodBoundIsSchedulableAndConservative) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6'700'417 + 5);
  std::vector<std::uint64_t> q;
  const dataflow::Graph g = random_csdf(rng, q);

  const auto rv = g.repetition_vector();
  ASSERT_TRUE(rv.ok()) << rv.error().to_string();
  for (std::size_t i = 0; i < q.size(); ++i)
    EXPECT_EQ(rv.value().cycles[i], q[i]) << "actor " << i;

  dataflow::ExecConfig cfg;
  cfg.frequency = mhz(400);
  cfg.num_cores = 1 + rng.next_below(3);
  const DurationPs w = guaranteed_period(g, cfg.frequency);
  ASSERT_GT(w, 0u);

  // The guarantee half: W is accepted by the static scheduler.
  cfg.source_period = w;
  EXPECT_TRUE(dataflow::compute_static_schedule(g, cfg).ok())
      << "seed " << GetParam() << ": period " << w << " ps infeasible";

  // The conservativeness half: no measured period beats the bound's
  // direction — the true minimum is never above W.
  const DurationPs measured = dataflow::min_sustainable_period(g, cfg);
  if (measured > 0) {
    EXPECT_LE(measured, w) << "seed " << GetParam();
  }
}

TEST_P(PerfProperty, StaticCapacitiesRunDeadlockFreeDynamically) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 179'424'673 + 13);
  std::vector<std::uint64_t> q;
  const dataflow::Graph g = random_csdf(rng, q);

  const auto caps = deadlock_free_capacities(g);
  ASSERT_EQ(caps.size(), g.edges().size()) << "seed " << GetParam();
  for (const std::size_t c : caps) EXPECT_GT(c, 0u);

  const auto rv = g.repetition_vector();
  ASSERT_TRUE(rv.ok());
  std::uint64_t iteration = 0;
  for (const std::uint64_t f : rv.value().firings) iteration += f;

  dataflow::ExecConfig cfg;
  cfg.frequency = mhz(400);
  cfg.num_cores = 1 + rng.next_below(3);
  cfg.source_period = guaranteed_period(g, cfg.frequency);
  ASSERT_GT(cfg.source_period, 0u);
  cfg.buffer_capacities = caps;
  cfg.iterations = 6;
  const auto r = dataflow::run_data_driven(g, cfg);
  EXPECT_GE(r.firings, iteration)
      << "seed " << GetParam() << ": wedged under the static capacities";
  EXPECT_EQ(r.internal_corruptions(), 0u) << "seed " << GetParam();
}

TEST_P(PerfProperty, MakespanBoundDominatesEstimateAndReplay) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2'147'483'629 + 3);
  RandomMapped m = random_mapped(rng);
  ASSERT_TRUE(m.graph.is_acyclic());

  const auto pes = maps::pes_from_platform(m.platform);
  const auto comm = maps::comm_cost_from_platform(m.platform);
  const auto b =
      maps::static_makespan_bound(m.graph, pes, comm, m.task_to_pe);
  EXPECT_EQ(b.bound, b.work + b.comm);
  EXPECT_LE(b.critical_path, b.bound);

  const TimePs estimate =
      maps::evaluate_mapping(m.graph, pes, comm, m.task_to_pe);
  EXPECT_LE(estimate, b.bound) << "seed " << GetParam();

  const auto mr = maps::heft_map(m.graph, pes, comm);
  const auto hb =
      maps::static_makespan_bound(m.graph, pes, comm, mr.task_to_pe);
  EXPECT_LE(mr.makespan, hb.bound) << "seed " << GetParam();

  sim::Platform platform(std::move(m.platform));
  const TimePs measured =
      maps::execute_on_platform(m.graph, m.task_to_pe, platform);
  EXPECT_LE(measured, b.bound)
      << "seed " << GetParam()
      << ": simulated makespan exceeds the static bound ("
      << platform.interconnect().describe() << ")";
}

TEST_P(PerfProperty, AnyGangBoundDominatesRandomAssignments) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15'485'863 + 7);
  RandomMapped m = random_mapped(rng);

  const maps::PeDesc pe{};
  const auto comm = maps::simple_comm_cost(nanoseconds(50), 0.01);
  const auto any = maps::static_makespan_bound_any_gang(m.graph, pe, comm);
  for (const std::size_t gang : {1u, 2u, 3u, 8u}) {
    const std::vector<maps::PeDesc> pes(gang, pe);
    std::vector<std::size_t> assign(m.graph.tasks().size());
    for (auto& a : assign) a = rng.next_below(gang);
    const auto fixed =
        maps::static_makespan_bound(m.graph, pes, comm, assign);
    EXPECT_LE(fixed.bound, any.bound)
        << "seed " << GetParam() << " gang=" << gang;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PerfProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace rw::lint
