// The rwlint driver, as a library so tests exercise exactly what the CLI
// does: load corpus programs, run a configurable pass set, print a table,
// write LINT_<name>.json, and report an exit code that is nonzero exactly
// when an error-severity finding exists.
#pragma once

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "lint/corpus.hpp"
#include "lint/pass.hpp"
#include "tools/cli_common.hpp"

namespace rw::lint {

/// Shared flags (--list/--json/--no-files/--seed/--out-dir)
/// come from cli::CommonOptions; only the tool-specific ones live here.
struct DriverOptions : cli::CommonOptions {
  std::vector<std::string> programs;  // empty = the whole corpus
  std::set<std::string> passes;       // empty = all default passes
};

/// Parse rwlint's argv (without argv[0]).
Result<DriverOptions> parse_driver_args(
    const std::vector<std::string>& args);

struct ProgramOutcome {
  std::string program;
  LintResult result;
  std::string json_path;  // empty when not written
};

struct DriverReport {
  std::vector<ProgramOutcome> outcomes;
  int exit_code = 0;
};

/// Combined deterministic JSON document over all outcomes
/// (schema rw-lint-run-1: {schema, programs: [rw-lint-1 docs]}).
std::string driver_json(const std::vector<ProgramOutcome>& outcomes);

/// Run per options, writing human output (or the JSON doc) to `out`.
DriverReport run_driver(const DriverOptions& opts, std::ostream& out);

}  // namespace rw::lint
