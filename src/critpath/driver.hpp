// The rwcritpath driver, as a library so tests exercise exactly what the
// CLI does: trace each corpus workload, extract and attribute the critical
// path, sweep the standard what-if edits with re-simulated ground truth,
// run the remap adviser, print the summary tables and write deterministic
// CRITPATH_<workload>.json documents (schema rw-critpath-1).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "critpath/advise.hpp"
#include "maps/mapping.hpp"
#include "tools/cli_common.hpp"

namespace rw::critpath {

struct CritOptions : cli::CommonOptions {
  std::vector<std::string> workloads;  // positional; empty = whole corpus
  std::size_t cores = 4;               // --cores N
  bool mesh = false;                   // --mesh
  int rounds = 4;                      // --rounds R (adviser hill-climb)
  std::uint32_t blocks = 8;            // --blocks B (jpeg size)
  std::uint32_t slices = 4;            // --slices S (h264 size)
};

/// Parse rwcritpath's argv (without argv[0]).
Result<CritOptions> parse_crit_args(const std::vector<std::string>& args);

/// One corpus entry, ready to trace: application graph, platform model
/// and the HEFT baseline mapping.
struct CorpusCase {
  maps::TaskGraph graph;
  sim::PlatformConfig cfg;
  std::vector<std::size_t> task_to_pe;
};

std::vector<std::string> corpus_names();
Result<CorpusCase> build_corpus_case(const std::string& name,
                                     const CritOptions& opts);

/// The standard single-edit sweep the CLI (and E17 bench) validate:
/// hottest core faster, fabric faster/wider, heaviest critical-path
/// dependence removed.
std::vector<Edit> sweep_edits(const DepGraph& dep, const Attribution& attr);

struct WhatIfRow {
  std::string edit;
  TimePs predicted = 0;
  TimePs resim = 0;
  double rel_error = 0.0;
  double speedup = 1.0;    // resim baseline / resim edited
  std::uint64_t ops = 0;
};

struct WorkloadReport {
  std::string name;
  TimePs observed = 0;   // traced executor makespan
  TimePs retimed = 0;    // replay of the unedited graph (== observed)
  std::size_t nodes = 0;
  std::size_t dep_edges = 0;
  std::size_t res_edges = 0;
  std::size_t trace_events = 0;
  Attribution attribution;
  std::vector<WhatIfRow> whatifs;
  RemapAdvice advice;
  std::string json_path;  // empty when not written
};

struct CritReport {
  std::vector<WorkloadReport> workloads;
  int exit_code = 0;
};

/// Combined deterministic JSON document (legacy schema rw-critpath-1).
std::string critpath_json(const CritOptions& opts,
                          const std::vector<WorkloadReport>& reports);

/// Run per options, writing human output (or the JSON doc) to `out`.
/// Exit code 1 when a file write fails, a what-if misses the 10% accuracy
/// contract, or the adviser's verified mapping is slower than baseline.
CritReport run_critpath(const CritOptions& opts, std::ostream& out);

}  // namespace rw::critpath
