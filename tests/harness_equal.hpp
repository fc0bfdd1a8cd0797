// The equality the serial-vs-parallel harness tests hold the Runner to.
#pragma once

#include "harness/harness.hpp"

namespace rw::harness {

/// Deterministic-fields equality (labels, seeds, order, sim metrics; wall
/// clocks and thread counts ignored).
inline bool sim_equal(const ScenarioResult& a, const ScenarioResult& b) {
  if (a.scenario != b.scenario || a.runs.size() != b.runs.size())
    return false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const RunRecord& x = a.runs[i];
    const RunRecord& y = b.runs[i];
    if (x.label != y.label || x.index != y.index || x.seed != y.seed ||
        x.ok != y.ok || x.error != y.error ||
        !x.metrics.sim_equal(y.metrics))
      return false;
  }
  return true;
}

}  // namespace rw::harness
