// E9 — Sec. VII: "Debugging using real hardware is typically intrusive
// ... The so-called 'Heisenbug' is a prominent artefact of intrusive
// debugging. Those kinds of bugs disappear as soon as debugging is
// performed ... A virtual hardware platform overcomes those problems."
//
// Shape to reproduce: across seeds, a seeded lost-update race
//  (a) reproduces bit-exactly under the virtual platform (replay
//      fingerprints equal, lost-update counts equal),
//  (b) is perturbed or masked by an intrusive single-core debug stall,
//      with the effect growing with the stall length,
//  (c) is pinpointed non-intrusively by the race detector, and the
//      semaphore fix passes the same scrutiny clean;
// and (d) a wrongly masked interrupt, a hang on real hardware, shows as
// a pending line on the virtual platform.
#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "vpdebug/race.hpp"
#include "vpdebug/replay.hpp"
#include "vpdebug/victim.hpp"

int main() {
  using namespace rw;
  using namespace rw::vpdebug;

  auto platform_cfg = sim::PlatformConfig::homogeneous(2, mhz(400));
  platform_cfg.trace_enabled = true;
  const int kSeeds = 20;

  std::printf("E9: Heisenbug reproduction, %d seeded runs\n", kSeeds);

  // (a)+(b): manifestation under increasing probe intrusiveness.
  Table t({"probe stall", "bugs manifested", "mean lost updates",
           "runs changed vs clean"});
  std::vector<std::uint64_t> clean_observed;
  for (const std::uint64_t stall_ns : {0u, 100u, 400u, 700u, 1500u, 5000u,
                                       20000u}) {
    int manifested = 0, changed = 0;
    double lost_sum = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      RacyCounterConfig cfg;
      cfg.increments_per_core = 50;
      cfg.seed = static_cast<std::uint64_t>(seed);
      cfg.probe_stall_ps = nanoseconds(stall_ns);
      sim::Platform p(platform_cfg);
      const auto r = run_racy_counter(p, cfg);
      if (r.bug_manifested()) ++manifested;
      lost_sum += static_cast<double>(r.lost_updates());
      if (stall_ns == 0) {
        clean_observed.push_back(r.observed);
      } else if (r.observed != clean_observed[static_cast<std::size_t>(
                     seed)]) {
        ++changed;
      }
    }
    t.add_row({stall_ns == 0 ? "none (virtual platform)"
                             : format_time(nanoseconds(stall_ns)),
               strformat("%d/%d", manifested, kSeeds),
               Table::num(lost_sum / kSeeds),
               stall_ns == 0 ? "-" : strformat("%d/%d", changed, kSeeds)});
  }
  t.print("intrusive probing perturbs the defect");

  // (a) determinism: replay fingerprints.
  int deterministic = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    RacyCounterConfig cfg;
    cfg.increments_per_core = 50;
    cfg.seed = static_cast<std::uint64_t>(seed);
    const auto check = check_replay(platform_cfg, [&](sim::Platform& p) {
      run_racy_counter(p, cfg);
    });
    if (check.deterministic()) ++deterministic;
  }
  std::printf("replay determinism: %d/%d runs reproduce bit-exactly\n\n",
              deterministic, kSeeds);

  // (c) localization + fix verification.
  Table f({"version", "races flagged", "lost updates"});
  for (const bool fixed : {false, true}) {
    sim::Platform p(platform_cfg);
    RaceDetector det(p, racy_counter_addr(p), 8, microseconds(2));
    RacyCounterConfig cfg;
    cfg.increments_per_core = 60;
    cfg.seed = 9;
    cfg.use_semaphore = fixed;
    const auto r = run_racy_counter(p, cfg);
    f.add_row({fixed ? "hwsem-protected (fix)" : "racy firmware",
               Table::num(static_cast<std::uint64_t>(det.races().size())),
               Table::num(r.lost_updates())});
  }
  f.print("non-intrusive race localization");

  std::printf("expected shape: 100%% bit-exact replay with no probe; the "
              "intrusive stall\nchanges most runs (the Heisenbug); the "
              "detector flags the racy version and is\nsilent on the "
              "fixed one.\n");

  // (d) the wrongly masked interrupt.
  sim::Platform masked_platform(platform_cfg);
  const auto masked = run_masked_irq_bug(masked_platform);
  std::printf("\nmasked IRQ: handler ran: %s, pending line visible: %s\n",
              masked.handler_ran ? "yes" : "no",
              masked.irq_line_high ? "yes" : "no");
  const bool shape = deterministic == kSeeds && !masked.handler_ran &&
                     masked.irq_line_high;
  return shape ? 0 : 1;
}
