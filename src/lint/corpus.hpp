// The seeded-defect corpus.
//
// The headline experiment of the lint framework: every program here
// exists in two forms — a static Target the passes analyze, and (for the
// mapped ones) a deterministic execution on rw::sim with the
// vpdebug::RaceDetector armed and bounded blocking waits so wedges are
// observable facts (the dynamic twin, in tests/lint_dynamic.*). The
// contract under test: the static findings are a conservative superset
// of whatever any dynamic run observes. Defects are
// seeded per program: two racy, two deadlocking (one a pure wait cycle,
// one a mapping-induced order inversion), one uninitialized read, one
// clean, plus a token-starved CSDF graph for the dataflow side.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/graph.hpp"
#include "lint/diagnostic.hpp"
#include "lint/pass.hpp"
#include "maps/ir.hpp"
#include "maps/taskgraph.hpp"
#include "recoder/ast.hpp"
#include "sim/platform.hpp"

namespace rw::lint {

/// One corpus entry. Owns its models; target() exposes non-owning views,
/// so keep the CorpusProgram alive while linting.
struct CorpusProgram {
  std::string name;
  std::string summary;
  /// Diagnostic kinds the seeded defect must statically produce (empty
  /// for the clean program).
  std::set<std::string> expected_kinds;

  // --- owned models, presence-flagged ---
  recoder::Program program;
  bool has_program = false;

  maps::SeqProgram seq;
  maps::TaskGraph tasks;
  std::vector<std::size_t> stmt_to_task;
  std::vector<std::size_t> task_to_pe;
  std::vector<std::vector<std::size_t>> core_order;
  std::set<std::string> locked_vars;
  bool has_mapped = false;

  dataflow::Graph graph;
  bool has_graph = false;
  dataflow::ExecConfig graph_cfg;

  /// Platform the mapping targets — the same shape the dynamic twin in
  /// tests/ builds, so the static makespan contract and the dynamic run
  /// agree on the machine. Set for every mapped program.
  sim::PlatformConfig platform;
  bool has_platform = false;

  [[nodiscard]] Target target() const;
  /// Mapped programs can be executed on the virtual platform.
  [[nodiscard]] bool runnable() const { return has_mapped; }
};

/// Build the full corpus (deterministic; no global state).
std::vector<CorpusProgram> build_corpus();

}  // namespace rw::lint
