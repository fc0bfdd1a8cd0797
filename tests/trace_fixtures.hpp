// Traced platform runs that more than one test binary reads: the busy
// loop the trace-export tests put on a core, and the crash-and-recover
// run whose abandoned compute block every pairing reader must drop.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/platform.hpp"
#include "sim/process.hpp"

namespace rw::sim {

/// `reps` compute blocks of `c` cycles labelled `label` on core `core`,
/// each followed by 5 us idle.
inline Process busy_task(Platform& p, std::size_t core, Cycles c,
                         const char* label, int reps) {
  for (int i = 0; i < reps; ++i) {
    co_await p.core(core).compute(c, label);
    co_await delay(p.kernel(), microseconds(5));
  }
}

/// Core 0 crashes 5 us into a 14 us block and recovers at 8 us, which
/// re-runs the whole block over [8, 22] us.
inline std::vector<TraceEvent> crash_and_recover_trace() {
  auto cfg = PlatformConfig::homogeneous(2, ghz(1));
  cfg.trace_enabled = true;
  Platform p(std::move(cfg));
  spawn(p.kernel(), busy_task(p, 0, 14'000, "blk", 1));
  p.kernel().schedule_at(microseconds(5), [&] { p.core(0).fail(); });
  p.kernel().schedule_at(microseconds(8), [&] { p.core(0).recover(); });
  p.kernel().run();
  return p.tracer().events();
}

}  // namespace rw::sim
