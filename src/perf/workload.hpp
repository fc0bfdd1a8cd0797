// Demo workloads for the profiler tooling.
//
// Small, deterministic multi-core programs with distinct performance
// signatures, used by the rwprof CLI and bench_e12 as measurement
// subjects: a software pipeline (communication-bound), a fork-join loop
// (Amdahl-shaped with a serial phase), and a shared-memory hammer
// (contention-bound). Every workload is a pure function of (platform
// config, seed, scale) so profiles and exports are byte-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/platform.hpp"

namespace rw::perf {

struct WorkloadInfo {
  std::string name;
  std::string description;
};

/// All registered workloads, in stable display order.
const std::vector<WorkloadInfo>& workload_registry();

[[nodiscard]] bool is_workload(std::string_view name);

/// Spawn workload `name` onto the platform (processes adopt into the
/// kernel; the caller then calls kernel.run()). `scale` multiplies the
/// iteration counts — CI uses small values. Returns false for an unknown
/// name.
bool spawn_workload(std::string_view name, sim::Platform& platform,
                    std::uint64_t seed, std::uint64_t scale = 8);

}  // namespace rw::perf
