// Heap-allocation budget of the simulation paths.
//
// Every simulation thread of the harness pool shares the process
// allocator, the host-side "centralized construct" that Sec. II warns
// about. This binary replaces the global operator new with a counting one
// and runs fixed single-threaded workloads: the four perf demos on a
// 4-core bus and a 2x2 mesh, and one serial fuzz case per family. Each
// count is pinned as an upper bound, so it may only fall; when a change
// lowers one, lower its pin with it.
//
// The pins are the counts of a GCC 12 Release build. The counting
// operator new is the only one in this binary, so keep it out of the
// other test binaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "perf/workload.hpp"
#include "sim/platform.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rw {
namespace {

template <typename F>
std::uint64_t allocations_of(F&& f) {
  const std::uint64_t before = g_allocations;
  f();
  return g_allocations - before;
}

/// Build the platform, spawn demo `name` at scale 8 and run it untraced:
/// one sim_untraced demo op, set-up included.
std::uint64_t demo_allocations(const std::string& name, bool mesh) {
  return allocations_of([&] {
    sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
    if (mesh) {
      cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
      cfg.mesh.width = 2;
      cfg.mesh.height = 2;
    }
    sim::Platform plat(std::move(cfg));
    ASSERT_TRUE(perf::spawn_workload(name, plat, /*seed=*/7, /*scale=*/8));
    plat.run();
  });
}

struct DemoBudget {
  const char* name;
  bool mesh;
  std::uint64_t max_allocations;
};

constexpr DemoBudget kDemoBudgets[] = {
    {"pipeline", false, 71},
    {"pipeline", true, 72},
    {"forkjoin", false, 61},
    {"forkjoin", true, 62},
    {"shared_hammer", false, 64},
    {"shared_hammer", true, 65},
    {"tiled_pipeline", false, 77},
    {"tiled_pipeline", true, 78},
};

TEST(AllocBudget, PerfDemosStayWithinTheirPins) {
  for (const DemoBudget& b : kDemoBudgets) {
    const std::uint64_t n = demo_allocations(b.name, b.mesh);
    EXPECT_LE(n, b.max_allocations)
        << b.name << (b.mesh ? "/mesh" : "/bus") << " made " << n;
  }
}

/// The first seed from 1 on whose case of family `f` runs on one tile, so
/// the case (and its twins) stays on this thread.
fuzz::CampaignCase serial_case(fuzz::Family f) {
  fuzz::GeneratorConfig gcfg;
  gcfg.family_mask = fuzz::family_bit(f);
  for (std::uint64_t seed = 1;; ++seed) {
    fuzz::CampaignCase c = fuzz::generate_case(seed, gcfg);
    if (c.tiles == 1) return c;
  }
}

struct CaseBudget {
  fuzz::Family family;
  std::uint64_t max_allocations;
};

constexpr CaseBudget kCaseBudgets[] = {
    {fuzz::Family::kPipeline, 214},
    {fuzz::Family::kForkjoin, 191},
    {fuzz::Family::kSharedHammer, 178},
    {fuzz::Family::kTiledPipeline, 229},
    {fuzz::Family::kFaultPipeline, 257},
    {fuzz::Family::kMaps, 163},
    {fuzz::Family::kErt, 957},
};

TEST(AllocBudget, OneFuzzCasePerFamilyStaysWithinItsPin) {
  for (const CaseBudget& b : kCaseBudgets) {
    const fuzz::CampaignCase c = serial_case(b.family);
    std::uint64_t sub_runs = 0;
    const std::uint64_t n = allocations_of([&] {
      const fuzz::CaseOutcome out = fuzz::run_case(c);
      EXPECT_TRUE(out.ok()) << c.seed;
      sub_runs = out.sub_runs;
    });
    EXPECT_LE(n, b.max_allocations)
        << fuzz::family_name(b.family) << " seed " << c.seed << " made " << n
        << " over " << sub_runs << " sub-runs";
  }
}

}  // namespace
}  // namespace rw
