// The dynamic twin of the lint corpus, for the static-vs-dynamic
// cross-check (test_lint_crosscheck.cpp): a mapped corpus program runs on
// the virtual platform with the vpdebug::RaceDetector armed, and what it
// observes becomes Diagnostics keyed like the static ones, so "static
// findings are a superset of dynamic observations" is set containment.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "lint/corpus.hpp"
#include "lint/diagnostic.hpp"
#include "vpdebug/race.hpp"

namespace rw::lint {

/// The cross-check key: static and dynamic findings about the same defect
/// agree on it whatever else they disagree on.
std::string key(const Diagnostic& d);

/// A dynamic race observation. `entity` is the shared variable the raced
/// address resolves to (the caller owns the address map).
Diagnostic from_race_report(const vpdebug::RaceReport& r, std::string unit,
                            std::string entity);

/// What one dynamic run observed.
struct DynamicObservations {
  std::vector<vpdebug::RaceReport> races;
  std::vector<std::string> race_vars;   // parallel to races: resolved name
  std::set<std::string> raced_vars;     // race addresses -> variable names
  std::set<std::string> blocked_tasks;  // wedged at the horizon
  std::uint64_t accesses_observed = 0;

  [[nodiscard]] bool any() const {
    return !raced_vars.empty() || !blocked_tasks.empty();
  }

  /// The observations as Diagnostics (pass = "dynamic"), keyed exactly
  /// like the static ones so the superset check is set containment.
  [[nodiscard]] std::vector<Diagnostic> to_diagnostics(
      const std::string& unit) const;
};

struct DynamicRunConfig {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 24;  // task-body repetitions (race exposure)
  DurationPs horizon = milliseconds(4);  // wedge-detection deadline
  DurationPs race_window = microseconds(2);
};

/// Execute a mapped corpus program: one coroutine per PE running its
/// tasks to completion in order, channel waits as bounded spins on token
/// flags, shared variables as real shared-memory words watched by the
/// race detector. Deterministic in (program, cfg).
DynamicObservations run_dynamic(const CorpusProgram& p,
                                const DynamicRunConfig& cfg = {});

}  // namespace rw::lint
