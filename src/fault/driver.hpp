// The rwfault driver, as a library so tests exercise exactly what the CLI
// does: run the E14 fault/recovery scenario per policy, print the summary
// table, and write the deterministic FAULT_<policy>.json documents (config
// + plan parameters + outcome + full fault/recovery timeline).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "fault/scenario.hpp"
#include "tools/cli_common.hpp"

namespace rw::fault {

/// Shared flags (--list/--json/--no-files/--seed/--out-dir)
/// come from cli::CommonOptions; only the tool-specific ones live here.
struct FaultOptions : cli::CommonOptions {
  std::vector<RecoveryPolicy> policies;  // empty = all three
  std::size_t cores = 4;                 // --cores N
  bool mesh = false;                     // --mesh
  std::uint64_t items = 48;              // --items K (pipeline length)
  std::uint64_t rate_per_ms = 50;        // --rate R (faults per sim ms)
  bool crashes_only = false;             // --crashes-only
  DurationPs watchdog_timeout = microseconds(50);  // --timeout-us U
  /// --plan FILE: replay an explicit rw-fault-plan-1 schedule (e.g. one
  /// exported by rwfuzz) instead of drawing the random plan.
  std::string plan_path;
};

/// Parse rwfault's argv (without argv[0]).
Result<FaultOptions> parse_fault_args(const std::vector<std::string>& args);

struct PolicyOutcome {
  RecoveryPolicy policy = RecoveryPolicy::kNone;
  ScenarioOutcome outcome;
  std::string json_path;  // empty when not written
};

struct FaultReport {
  std::vector<PolicyOutcome> outcomes;
  int exit_code = 0;
};

/// Combined deterministic JSON document over all policy runs
/// (schema rw-fault-run-1).
std::string fault_json(const FaultOptions& opts,
                       const std::vector<PolicyOutcome>& outcomes);

/// Run per options, writing human output (or the JSON doc) to `out`.
FaultReport run_fault(const FaultOptions& opts, std::ostream& out);

}  // namespace rw::fault
