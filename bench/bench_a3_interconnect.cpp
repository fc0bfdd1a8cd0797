// Ablation A3 — interconnect choice under scaling traffic.
//
// Sec. II-A demands a "scalable, fast and low-latency chip interconnect";
// the shared bus is the canonical centralized construct, the mesh the
// distributed one. All-to-neighbour traffic at growing core counts shows
// where the bus stops scaling. Each (cores, interconnect) point is one
// rw::harness run — independent kernels, so the sweep fans out freely.
#include <cstdio>

#include "common/table.hpp"
#include "harness/harness.hpp"
#include "sim/interconnect.hpp"

namespace {

using namespace rw;
using namespace rw::sim;

/// Every core sends 1 KiB to its +1 neighbour, all at t=0; the metrics
/// carry the completion time and total contention.
RunMetrics neighbour_traffic(Interconnect& icn, std::uint32_t n) {
  TimePs done = 0;
  for (std::uint32_t c = 0; c < n; ++c)
    done = std::max(done, icn.reserve_transfer(CoreId{c}, CoreId{(c + 1) % n},
                                               1024, 0)
                              .second);
  RunMetrics m;
  m.makespan = done;
  m.set_extra("contention_ps", static_cast<double>(icn.total_contention()));
  return m;
}

FabricConfig bus_fabric() {
  return {FabricConfig::Icn::kSharedBus, {mhz(200), 8, 4}, {}};
}

/// The square mesh of `cores` nodes (4, 16 or 64).
FabricConfig mesh_fabric(std::uint32_t cores) {
  const std::uint32_t side = cores == 4 ? 2 : (cores == 16 ? 4 : 8);
  return {FabricConfig::Icn::kMesh,
          {},
          {side, side, nanoseconds(5), mhz(500), 4}};
}

}  // namespace

int main() {
  const std::uint32_t core_counts[] = {4, 16, 64};

  harness::Scenario scenario("a3_interconnect");
  for (const std::uint32_t n : core_counts) {
    scenario.add_run("bus" + std::to_string(n),
                     [n](const harness::RunContext&) {
                       Kernel k;
                       Interconnect bus(k, bus_fabric());
                       return neighbour_traffic(bus, n);
                     });
    scenario.add_run("mesh" + std::to_string(n),
                     [n](const harness::RunContext&) {
                       Kernel k;
                       Interconnect mesh(k, mesh_fabric(n));
                       return neighbour_traffic(mesh, n);
                     });
  }
  const auto result = harness::Runner().run(scenario);

  std::printf("A3: shared bus vs 2-D mesh under neighbour traffic\n");
  Table t({"cores", "bus: total time", "bus contention", "mesh: total time",
           "mesh contention"});
  for (const std::uint32_t n : core_counts) {
    const auto& bus = result.find("bus" + std::to_string(n))->metrics;
    const auto& mesh = result.find("mesh" + std::to_string(n))->metrics;
    t.add_row({Table::num(static_cast<std::uint64_t>(n)),
               format_time(bus.makespan),
               format_time(static_cast<TimePs>(bus.extra_or("contention_ps"))),
               format_time(mesh.makespan),
               format_time(
                   static_cast<TimePs>(mesh.extra_or("contention_ps")))});
  }
  t.print("1 KiB per core to its neighbour, all simultaneously");
  for (const std::uint32_t n : core_counts)
    std::printf("%2u cores: %s vs %s\n", n,
                describe_fabric(bus_fabric()).c_str(),
                describe_fabric(mesh_fabric(n)).c_str());
  std::printf("harness: %zu runs on %zu threads in %.0fms\n",
              result.runs.size(), result.threads_used,
              static_cast<double>(result.wall_ns) / 1e6);
  if (const auto s =
          harness::write_json("BENCH_a3_interconnect.json", {result});
      !s.ok())
    std::printf("warning: %s\n", s.error().to_string().c_str());
  std::printf("expected shape: bus completion time grows linearly with core "
              "count (every\ntransfer serializes); the mesh's stays nearly "
              "flat — neighbour links are\ndisjoint. This is Sec. II-A's "
              "scalability argument in one table.\n");
  return 0;
}
