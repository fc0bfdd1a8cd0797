// Test driver: run every event up to `t`, daemons included, then park the
// clock at `t`. This is the step the tiled engine takes on each tile.
#pragma once

#include "sim/kernel.hpp"

namespace rw::sim {

inline void run_to(Kernel& k, TimePs t) {
  k.run_window(t, /*live_only=*/false);
  k.advance_to(t);
}

}  // namespace rw::sim
