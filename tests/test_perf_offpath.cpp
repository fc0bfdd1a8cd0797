// The unobserved path: with tracing off the sampling profiler still
// attributes every sample to the right block, and the only kernel work a
// run sheds is the trace-only ComputeStart event of each compute block.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "common/fnv.hpp"
#include "perf/export.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"

namespace rw::perf {
namespace {

std::unique_ptr<sim::Platform> make_platform(bool mesh, bool traced) {
  auto cfg = sim::PlatformConfig::homogeneous(4, mhz(400));
  cfg.trace_enabled = traced;
  if (mesh) cfg.use_square_mesh();
  return std::make_unique<sim::Platform>(std::move(cfg));
}

std::uint64_t fnv1a(std::string_view doc,
                    std::uint64_t h = fnv::kRecorderSeed) {
  return fnv::fold(h, doc);
}

const char* const kDemos[] = {"pipeline", "forkjoin", "shared_hammer",
                              "tiled_pipeline"};

// Pinned FNV-1a digests of the rw-perf-1 document and the folded stacks
// of a PerfSession on an untraced platform. The sampling profiler reads
// Core::current_label() at every tick, so these pin the derived label
// (core.hpp); they were recorded while a ComputeStart event still set
// the label on every platform, traced or not. The forkjoin
// and shared_hammer rw-perf-1 digests equal the traced goldens in
// test_perf_export.cpp: tracing does not change the profile.
TEST(OffPathTest, GoldenUntracedProfileDigests) {
  struct Golden {
    const char* workload;
    bool mesh;
    std::uint64_t json, folded;
  };
  const Golden goldens[] = {
      {"pipeline", false, 0x0ab7bf8c2f88f296ull, 0xd7ca8f138d5290edull},
      {"pipeline", true, 0x0ab7bf8c2f88f296ull, 0xd7ca8f138d5290edull},
      {"forkjoin", false, 0x8f9140d141e5d83cull, 0xfd4fff809c54f336ull},
      {"forkjoin", true, 0x8f9140d141e5d83cull, 0xfd4fff809c54f336ull},
      {"shared_hammer", false, 0xc56180d44ce98c54ull, 0x755665779120b6a8ull},
      {"shared_hammer", true, 0xdbf33d35a14eace9ull, 0xcc7d6e6f2dc7ddc5ull},
      {"tiled_pipeline", false, 0x385efecd9dcbf0e8ull, 0x678bf62f6fd69730ull},
      {"tiled_pipeline", true, 0x1772fa1a267220caull, 0x0987de69b690db0full},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(g.workload) + (g.mesh ? " mesh" : " bus"));
    auto plat = make_platform(g.mesh, /*traced=*/false);
    PerfConfig cfg;
    cfg.profiler.period = microseconds(5);
    cfg.epoch_width = microseconds(25);
    PerfSession session(*plat, cfg);
    ASSERT_TRUE(spawn_workload(g.workload, *plat, /*seed=*/9, /*scale=*/2));
    plat->kernel().run();
    const PerfReport report = session.report();
    ASSERT_GT(report.profile.busy_samples, 0u);
    EXPECT_TRUE(plat->tracer().events().empty());
    const std::string json = to_json(report);
    const std::string folded = to_folded_stacks(report.profile);
    EXPECT_EQ(fnv1a(json), g.json);
    EXPECT_EQ(fnv1a(folded), g.folded);
  }
}

// The exact price of observation in kernel events: an untraced run
// executes the traced run's events minus one ComputeStart per block, and
// nothing else about the run changes.
TEST(OffPathTest, UntracedRunShedsExactlyTheComputeStartEvents) {
  for (const bool mesh : {false, true}) {
    for (const char* demo : kDemos) {
      SCOPED_TRACE(std::string(demo) + (mesh ? " mesh" : " bus"));
      auto traced = make_platform(mesh, /*traced=*/true);
      auto untraced = make_platform(mesh, /*traced=*/false);
      ASSERT_TRUE(spawn_workload(demo, *traced, /*seed=*/3, /*scale=*/2));
      ASSERT_TRUE(spawn_workload(demo, *untraced, /*seed=*/3, /*scale=*/2));
      traced->kernel().run();
      untraced->kernel().run();
      const std::size_t starts =
          traced->tracer().filter(sim::TraceKind::kComputeStart).size();
      ASSERT_GT(starts, 0u);
      EXPECT_EQ(untraced->kernel().events_executed(),
                traced->kernel().events_executed() - starts);
      EXPECT_EQ(untraced->kernel().now(), traced->kernel().now());
    }
  }
}

}  // namespace
}  // namespace rw::perf
