// rw::fuzz — campaign coverage accounting.
//
// A coverage cell is (family, fault kind, queue policy, exec mode): the
// cross product the ISSUE's matrix asks for, restricted to cells the
// oracle can actually reach — maps runs fault-free by construction (its
// makespan bound assumes an un-faulted fabric) and ert has neither a sim
// kernel nor a fabric, so its policy/exec/kind axes collapse to one
// cell. The matrix counts hits against that reachable set; the campaign
// report and the E19 bench gate on the hit fraction, and the directed
// fill phase generates single-kind cases straight at whatever stayed
// dark after the random sweep.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fuzz/case.hpp"

namespace rw::fuzz {

/// One cell of the matrix. `kind` is a FaultKind index, or kFaultFree
/// for runs with an empty plan.
struct CoverageCell {
  Family family = Family::kPipeline;
  int kind = -1;  // kFaultFree or [0, kNumFaultKinds)
  sim::QueuePolicy policy = sim::QueuePolicy::kCalendar;
  bool parallel = false;  // ExecMode of the run that hit the cell

  static constexpr int kFaultFree = -1;

  /// Stable text key "family|kind|policy|exec" (kind "none" when
  /// fault-free), used for JSON export and set ordering.
  [[nodiscard]] std::string key() const;

  auto operator<=>(const CoverageCell&) const = default;
};

class CoverageMatrix {
 public:
  /// Every cell the generator + oracle can reach (see header comment).
  static std::vector<CoverageCell> reachable();

  void mark(const CoverageCell& cell) { hit_.insert(cell); }
  void merge(const CoverageMatrix& o) {
    hit_.insert(o.hit_.begin(), o.hit_.end());
  }

  [[nodiscard]] bool hit(const CoverageCell& cell) const {
    return hit_.count(cell) != 0;
  }
  [[nodiscard]] std::size_t hit_count() const;
  [[nodiscard]] static std::size_t reachable_count();
  /// hit_count() / reachable_count(); hits outside the reachable set
  /// (there should be none) do not inflate it.
  [[nodiscard]] double fraction() const;
  /// Reachable cells not yet hit, in key order (the directed fill
  /// phase's worklist).
  [[nodiscard]] std::vector<CoverageCell> unhit_reachable() const;

  /// family x kind grid, each cell "n/m" = hit / reachable
  /// (policy x exec collapsed), for the CLI and the E19 table.
  [[nodiscard]] Table to_table() const;

 private:
  std::set<CoverageCell> hit_;
};

}  // namespace rw::fuzz
