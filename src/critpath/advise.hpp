// advise_remap: close the loop from analysis back into the mapper.
//
// The what-if engine makes candidate evaluation nearly free: a proposed
// task move is one O(trace) re-timing instead of one simulation. The
// adviser exploits that with a greedy hill-climb — take the critical
// path's hottest compute segments, try re-homing each onto every other PE,
// keep the move the re-timer predicts fastest, repeat — then pays for ONE
// re-simulation at the end to verify. If reality disagrees (it should not;
// the replay is exact for these executors) the advice reverts to the
// baseline mapping, so advise_remap is never slower than what it started
// from — the contract the tests and the E17 gate enforce.
//
// The result also distils the attribution into PlacementHints: the PEs
// ordered by critical-path heat, the advised gang size and the share of
// the makespan that transfers own.
#pragma once

#include <cstddef>
#include <vector>

#include "critpath/whatif.hpp"

namespace rw::critpath {

/// Attribution distilled for the planning layers.
struct PlacementHints {
  /// PEs ordered by critical-path heat (hottest first).
  std::vector<std::size_t> preferred_pes;
  /// Distinct PEs the advised mapping actually uses (a gang-size hint).
  std::size_t gang_cores = 0;
  /// Fraction of the makespan owned by transfers.
  double comm_fraction = 0.0;

};

struct RemapAdvice {
  std::vector<std::size_t> task_to_pe;  // advised mapping (== input if none)
  TimePs baseline_makespan = 0;   // observed, from the baseline trace
  TimePs predicted_makespan = 0;  // re-timer's claim for the advised mapping
  TimePs resim_makespan = 0;      // re-simulated truth for it
  std::size_t moves = 0;          // accepted move edits
  bool reverted = false;  // resim was slower -> advice fell back to baseline
  std::uint64_t ops = 0;  // total re-timing work spent searching
  PlacementHints hints;

  [[nodiscard]] double speedup() const {
    return resim_makespan == 0 ? 1.0
                               : static_cast<double>(baseline_makespan) /
                                     static_cast<double>(resim_makespan);
  }
};

/// Greedy what-if hill-climb over task moves, verified by one final
/// re-simulation. `rounds` bounds the accepted moves (one per round);
/// each round evaluates (hot tasks x other PEs) candidate re-timings.
[[nodiscard]] RemapAdvice advise_remap(
    const maps::TaskGraph& g, const sim::PlatformConfig& cfg,
    const std::vector<std::size_t>& task_to_pe, int rounds = 4);

}  // namespace rw::critpath
