// Dataflow deadlock detection.
//
// Sec. VII lists "system deadlocks" first among concurrent-software
// failure modes. In (C)SDF the classic cause is a dependency cycle with
// too few initial tokens: no actor on the cycle can ever fire. That is
// decidable at design time by abstract execution of one iteration with
// unbounded buffers — if the simulation wedges before every actor
// completes its repetition count, the blocked actors form the deadlock.
#pragma once

#include <string>
#include <vector>

#include "dataflow/graph.hpp"

namespace rw::dataflow {

struct DeadlockReport {
  bool deadlocked = false;
  /// Actors that never completed their iteration quota, with the input
  /// edge each is starved on.
  struct BlockedActor {
    ActorId actor{};
    std::string actor_name;
    EdgeId starved_edge{};
    std::string edge_name;
    std::uint64_t tokens_present = 0;
    std::uint64_t tokens_needed = 0;
  };
  std::vector<BlockedActor> blocked;
};

/// Abstractly execute one graph iteration (unbounded buffers, zero time).
/// Returns a report; deadlocked==false means one full iteration completes,
/// which for consistent SDF implies unbounded execution works.
DeadlockReport detect_deadlock(const Graph& g);

}  // namespace rw::dataflow
