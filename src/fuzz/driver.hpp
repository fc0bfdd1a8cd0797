// The rwfuzz driver, as a library so tests exercise exactly what the CLI
// does: run a bounded invariant-checked campaign (or replay one shrunk
// case), print the summary and coverage matrix, and write the
// deterministic FUZZ_campaign.json document plus, per failure, the
// replayable FUZZ_case_<seed>.json and its FUZZ_stub_<seed>.cpp
// regression stub.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "fuzz/campaign.hpp"
#include "tools/cli_common.hpp"

namespace rw::fuzz {

/// Shared flags come from cli::CommonOptions.
struct FuzzOptions : cli::CommonOptions {
  /// --threads N: harness pool width; 0 (the default) = one worker per
  /// hardware thread. The campaign is bit-identical for every width.
  std::uint32_t threads = 0;
  std::uint64_t seeds = 1000;  // --seeds N
  double minutes = 0.0;        // --minutes M (wall cap; 0 = none)
  bool shrink = true;          // --no-shrink disables auto-shrink
  bool matrix = false;         // --matrix: print the coverage grid
  bool tiny = false;           // --tiny: floor every generator range
  std::string family;          // --family NAME: restrict the generator
  std::string replay_path;     // --replay FILE: run one case JSON
  bool defect = false;         // --defect: arm the seeded-defect hook
};

/// Parse rwfuzz's argv (without argv[0]).
Result<FuzzOptions> parse_fuzz_args(const std::vector<std::string>& args);

struct FuzzReport {
  CampaignReport campaign;  // empty on --list / --replay
  int exit_code = 0;        // 1 = violations found, 2 = usage/setup error
};

/// Run per options, writing human output (or the JSON doc) to `out`.
FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream& out);

}  // namespace rw::fuzz
