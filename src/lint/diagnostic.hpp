// Unified static-analysis diagnostics.
//
// Secs. IV, VI and VII all hinge on *design-time* findings a designer can
// act on: MAPS dataflow analysis, the Source Recoder's shared-access
// reports, and the virtual platform's race/deadlock observations. Before
// this module each of those spoke its own ad-hoc report struct. A
// Diagnostic is the one shape they all translate into: severity, the
// subsystem that produced it, a stable machine-readable kind, a location
// (which unit, which entity), prose, and structured evidence. The JSON
// export (rw::json::Writer) is deterministic so static and dynamic
// findings diff cleanly.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace rw::lint {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

const char* severity_name(Severity s);

/// Where a finding points. `unit` is the enclosing program / graph /
/// function; `entity` the variable, task, actor or edge concerned.
struct Location {
  std::string unit;
  std::string entity;
};

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string subsystem;  // "maps", "dataflow", "recoder", "vpdebug"
  std::string pass;       // producing pass, or "dynamic" for sim findings
  std::string kind;       // stable key: "race", "deadlock", ...
  Location location;
  std::string message;
  /// Ordered key/value pairs; insertion order is rendering order.
  std::vector<std::pair<std::string, std::string>> evidence;

  Diagnostic& with_evidence(std::string k, std::string v) {
    evidence.emplace_back(std::move(k), std::move(v));
    return *this;
  }

  void to_json(json::Writer& w) const;
};

/// Deterministic presentation order: errors first, then lexicographic on
/// (subsystem, kind, unit, entity, message, pass). Stable across runs by
/// construction — no pointers, times or hashes involved.
bool diagnostic_less(const Diagnostic& a, const Diagnostic& b);
void sort_diagnostics(std::vector<Diagnostic>& diags);

/// Counts by severity.
std::size_t count_severity(const std::vector<Diagnostic>& diags, Severity s);

/// Drop diagnostics that restate a finding another pass already made:
/// two entries are duplicates when (kind, unit, entity, evidence) agree
/// — the producing pass and prose may differ. Input must be sorted
/// (sort_diagnostics); the first entry in sorted order survives, so the
/// output never depends on pass registration order.
void dedupe_diagnostics(std::vector<Diagnostic>& diags);

/// Serialize a diagnostic set as the documented "rw-lint-1" schema:
/// {schema, program, errors, warnings, notes, diagnostics: [...]}. Output
/// is byte-identical across runs for the same findings.
std::string diagnostics_to_json(const std::string& program,
                                const std::vector<Diagnostic>& diags);

/// Same document, emitted into an existing writer (for the driver's
/// combined multi-program output).
void diagnostics_to_json(json::Writer& w, const std::string& program,
                         const std::vector<Diagnostic>& diags);

}  // namespace rw::lint
