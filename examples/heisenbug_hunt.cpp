// Hunting a Heisenbug with the virtual platform (Sec. VII as a session).
//
// A two-core firmware loses counter updates. We (1) reproduce it
// deterministically, (2) show an intrusive single-core probe makes it
// vanish — the Heisenbug — and (3) pin it down non-intrusively with a
// watchpoint, the race detector, and a scripted system-level assertion.
#include <cstdio>

#include "vpdebug/debugger.hpp"
#include "vpdebug/race.hpp"
#include "vpdebug/replay.hpp"
#include "vpdebug/script.hpp"
#include "vpdebug/tracexport.hpp"
#include "vpdebug/victim.hpp"

int main() {
  using namespace rw;
  using namespace rw::vpdebug;

  auto cfg = sim::PlatformConfig::homogeneous(2, mhz(400));
  cfg.trace_enabled = true;

  RacyCounterConfig bug;
  bug.increments_per_core = 60;
  bug.seed = 7;

  // --- 1. the defect, reproduced twice: identical both times ---
  std::printf("== step 1: reproduce ==\n");
  for (int run = 0; run < 2; ++run) {
    sim::Platform p(cfg);
    const auto r = run_racy_counter(p, bug);
    std::printf("  run %d: expected %llu, observed %llu (%llu lost)\n",
                run, static_cast<unsigned long long>(r.expected),
                static_cast<unsigned long long>(r.observed),
                static_cast<unsigned long long>(r.lost_updates()));
  }

  // --- 2. the Heisenbug: an intrusive probe perturbs it ---
  std::printf("\n== step 2: try an intrusive (single-core-stall) probe ==\n");
  {
    RacyCounterConfig probed = bug;
    probed.probe_stall_ps = nanoseconds(700);
    sim::Platform p(cfg);
    const auto r = run_racy_counter(p, probed);
    std::printf("  with probe: observed %llu (%llu lost) — "
                "the defect %s\n",
                static_cast<unsigned long long>(r.observed),
                static_cast<unsigned long long>(r.lost_updates()),
                r.bug_manifested() ? "changed shape" : "disappeared!");
  }

  // --- 3. non-intrusive: watchpoint + race detector + scripted assert ---
  std::printf("\n== step 3: virtual-platform session ==\n");
  {
    sim::Platform p(cfg);
    Debugger dbg(p);
    RaceDetector races(p, racy_counter_addr(p), 8, microseconds(2));
    ScriptEngine script(dbg);

    // Start the victim and stop at the first write to the counter.
    RacyCounterConfig once = bug;
    once.increments_per_core = 5;
    // (run_racy_counter drives the kernel itself, so the scripted session
    // runs against a zeroed counter first and the victim afterwards.)
    const std::uint8_t zero[8] = {};
    p.memory().poke(racy_counter_addr(p), zero);

    // Arm everything from the script — no change to the firmware — and
    // run to completion of the empty spawn.
    const Status session = script.execute_script(
        "echo armed: watchpoint + assertion\n"
        "watch-mem 0x80000000 8 w\n"
        "run\n");
    if (!session.ok()) {
      std::fprintf(stderr, "script failed: %s\n",
                   session.error().to_string().c_str());
      return 1;
    }
    std::printf("%s", script.transcript().c_str());

    // Full run under the race detector.
    const auto r = run_racy_counter(p, once);
    std::printf("  race detector: %zu conflicting pairs over %llu "
                "accesses, first: %s\n",
                races.races().size(),
                static_cast<unsigned long long>(races.accesses_observed()),
                races.races().empty()
                    ? "-"
                    : races.races()[0].to_string().c_str());
    std::printf("  final state: observed %llu/%llu\n",
                static_cast<unsigned long long>(r.observed),
                static_cast<unsigned long long>(r.expected));

    // Keeping the overview: the trace as an ASCII timeline.
    std::printf("\n  execution overview (first 20us):\n%s",
                render_gantt(p.tracer().events(), p.core_count(), 0,
                             microseconds(20), 64)
                    .c_str());
  }

  // --- 4. the fix, verified, and replay-proof determinism ---
  std::printf("\n== step 4: fix with the hardware semaphore ==\n");
  {
    RacyCounterConfig fixed = bug;
    fixed.use_semaphore = true;
    sim::Platform p(cfg);
    RaceDetector races(p, racy_counter_addr(p), 8, microseconds(2));
    const auto r = run_racy_counter(p, fixed);
    std::printf("  fixed run: observed %llu/%llu, races flagged: %zu\n",
                static_cast<unsigned long long>(r.observed),
                static_cast<unsigned long long>(r.expected),
                races.races().size());
  }

  const auto replay = check_replay(cfg, [&](sim::Platform& p) {
    run_racy_counter(p, bug);
  });
  std::printf("\nreplay fingerprints: %016llx / %016llx -> %s\n",
              static_cast<unsigned long long>(replay.first),
              static_cast<unsigned long long>(replay.second),
              replay.deterministic() ? "deterministic" : "DIVERGED");
  return replay.deterministic() ? 0 : 1;
}
