// rw::fuzz — one point in the campaign's scenario space.
//
// A CampaignCase is the full, self-contained description of one fuzzed
// run: which scenario family, what platform shape (cores, fabric, tile
// partition, kernel queue policy), the workload knobs that family reads,
// and a materialized FaultPlan. Everything the oracle derives beyond
// these fields (task graphs, ert job streams, workload internals) is a
// pure function of `seed`, so a case replays exactly from its JSON — the
// property the shrinker and the committed regression stubs stand on.
//
// Serialization is schema rw-fuzz-case-1 and round-trips byte-stably
// (to_json -> from_json -> to_json is the identity on the text), the
// same contract FaultPlan::from_json keeps for the nested plan.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "common/units.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "sim/kernel.hpp"
#include "sim/platform.hpp"

namespace rw::fuzz {

/// Scenario families the campaign draws from. The first four are the
/// rw::perf demo workloads (free-running platform programs); the rest
/// compose whole subsystems: the E14 fault/recovery pipeline, the MAPS
/// map-then-replay flow judged against its lint contract, and the ert
/// job service.
enum class Family : std::uint8_t {
  kPipeline,
  kForkjoin,
  kSharedHammer,
  kTiledPipeline,
  kFaultPipeline,
  kMaps,
  kErt,
};

inline constexpr std::size_t kNumFamilies = 7;

const char* family_name(Family f);
/// Inverse of family_name(); false when `name` matches no family.
bool family_from_name(std::string_view name, Family& out);

/// Whether fault-plan events apply to this family's runs. maps replays a
/// static schedule judged against a bound that assumes an un-faulted
/// fabric, and ert's engine is virtual-time with no sim platform at all,
/// so neither takes a plan.
[[nodiscard]] bool family_faultable(Family f);

/// Display mask bit for family `f` (generator family restriction).
inline constexpr std::uint32_t family_bit(Family f) {
  return 1u << static_cast<std::uint32_t>(f);
}

struct CampaignCase {
  std::uint64_t seed = 0;  // identity; seeds every derived structure
  Family family = Family::kPipeline;

  // Platform shape (sim families; ert ignores all four, maps ignores
  // tiles>1 partitioning but keeps the fabric).
  std::uint32_t cores = 2;  // >= 2
  bool mesh = false;        // mesh NoC instead of the shared bus
  std::uint32_t tiles = 1;  // >1: base run uses the parallel tiled engine
  sim::QueuePolicy queue = sim::QueuePolicy::kCalendar;

  std::uint64_t scale = 1;  // workload iteration multiplier

  // fault_pipeline knobs (ScenarioConfig fields).
  std::uint64_t items = 8;
  std::uint64_t compute_cycles = 2000;
  fault::RecoveryPolicy recovery = fault::RecoveryPolicy::kNone;
  DurationPs watchdog_timeout = microseconds(50);

  // maps knobs: graph derived from (seed, graph_tasks).
  std::uint32_t graph_tasks = 4;  // >= 2
  bool dynamic_mapper = false;    // dynamic_schedule instead of heft_map

  // ert knobs: job stream derived from (seed, tenants, jobs_per_tenant).
  std::uint32_t tenants = 1;          // >= 1
  std::uint32_t jobs_per_tenant = 2;  // >= 1
  bool static_admission = false;

  /// Materialized fault schedule (empty for fault-free cases; always
  /// empty when !family_faultable(family)).
  fault::FaultPlan plan;

  /// The platform this case describes, under a policy/exec override (the
  /// oracle's determinism twins re-run one case with the axes flipped).
  /// Mesh sizing matches fault::run_fault_scenario's; cores are spread
  /// over tiles only for tiled_pipeline (the one tileable workload —
  /// everything else keeps shared state on tile 0 and runs with idle
  /// sibling tiles). With tiles > 1 the tile partition is applied either
  /// way and `parallel` selects only the ExecMode, so twin runs produce
  /// platforms with identical tile structure.
  [[nodiscard]] sim::PlatformConfig platform_config(sim::QueuePolicy policy,
                                                    bool parallel) const;

  /// Deterministic JSON, schema rw-fuzz-case-1.
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json(); byte-stable round trip.
  static Result<CampaignCase> from_json(std::string_view text);

  /// One-line human description ("seed=7 fault_pipeline cores=4 mesh
  /// tiles=2 queue=heap ... plan=3ev"), for logs and failure reports.
  [[nodiscard]] std::string summary() const;
};

}  // namespace rw::fuzz
