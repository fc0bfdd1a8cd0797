// The rwprof driver, as a library so tests exercise exactly what the CLI
// does: build a platform, run demo workloads under a PerfSession, print
// the counter and profile tables, and write the deterministic export
// files (PERF_<name>.json + Chrome trace + VCD + folded stacks + CSV).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "perf/session.hpp"
#include "tools/cli_common.hpp"

namespace rw::perf {

/// Shared flags (--list/--json/--no-files/--seed/--out-dir)
/// come from cli::CommonOptions; only the tool-specific ones live here.
struct ProfOptions : cli::CommonOptions {
  std::vector<std::string> workloads;  // empty = every registered workload
  bool governor = false;      // --governor: run the PMU-fed DVFS governor
  std::size_t cores = 4;      // --cores N
  bool mesh = false;          // --mesh: 2-D NoC instead of the shared bus
  std::uint64_t scale = 8;    // --scale K (iteration multiplier)
  DurationPs period = microseconds(10);  // --period-us U (sampler)
  DurationPs epoch = microseconds(50);   // --epoch-us U (window width)
};

/// Parse rwprof's argv (without argv[0]).
Result<ProfOptions> parse_prof_args(const std::vector<std::string>& args);

struct WorkloadOutcome {
  std::string workload;
  PerfReport report;
  std::uint64_t governor_transitions = 0;
  std::string json_path;  // empty when not written
};

struct ProfReport {
  std::vector<WorkloadOutcome> outcomes;
  int exit_code = 0;
};

/// Combined deterministic JSON document over all outcomes
/// (schema rw-perf-run-1: {schema, workloads: [rw-perf-1 docs]}).
std::string prof_json(const std::vector<WorkloadOutcome>& outcomes);

/// Run per options, writing human output (or the JSON doc) to `out`.
ProfReport run_prof(const ProfOptions& opts, std::ostream& out);

}  // namespace rw::perf
