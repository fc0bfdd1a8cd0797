#include "fuzz/generator.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "fault/injector.hpp"

namespace rw::fuzz {
namespace {

// Family weights for the random draw. The fault pipeline dominates: it
// composes the most subsystems (kernel + channels + semaphores + watchdog
// + recovery + injector) and is the family the seeded-defect selftest
// must reach often enough to trip within its 200-seed budget.
constexpr std::uint32_t kFamilyWeights[kNumFamilies] = {2, 2, 2, 2, 6, 2, 1};

Family pick_family(Rng& rng, std::uint32_t mask) {
  if (mask == 0) mask = (1u << kNumFamilies) - 1;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumFamilies; ++i)
    if (mask & (1u << i)) total += kFamilyWeights[i];
  std::uint64_t pick = rng.next_below(total == 0 ? 1 : total);
  for (std::size_t i = 0; i < kNumFamilies; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    if (pick < kFamilyWeights[i]) return static_cast<Family>(i);
    pick -= kFamilyWeights[i];
  }
  return Family::kFaultPipeline;
}

}  // namespace

CampaignCase generate_case(std::uint64_t seed, const GeneratorConfig& cfg) {
  Rng rng(seed);
  CampaignCase c;
  c.seed = seed;

  // Every field is drawn in one fixed order regardless of which family
  // ends up reading it, so the draw stream — and therefore the case — is
  // a pure function of (seed, cfg).
  c.family = cfg.target != nullptr ? cfg.target->family
                                   : pick_family(rng, cfg.family_mask);
  c.cores = static_cast<std::uint32_t>(
      2 + rng.next_below(cfg.tiny ? 2 : 5));  // 2..3 tiny, 2..6 full
  c.mesh = rng.next_bool(0.25);
  static constexpr std::uint32_t kTileChoices[] = {1, 1, 2, 4};
  c.tiles = std::min(c.cores, kTileChoices[rng.next_below(cfg.tiny ? 3 : 4)]);
  c.queue = rng.next_bool(0.5) ? sim::QueuePolicy::kBinaryHeap
                               : sim::QueuePolicy::kCalendar;
  c.scale = 1 + rng.next_below(cfg.tiny ? 1 : 3);

  // fault_pipeline knobs. Compute blocks run 5..100 us at 400 MHz.
  c.items = 4 + rng.next_below(cfg.tiny ? 5 : 13);
  static constexpr std::uint64_t kCycleChoices[] = {2'000, 5'000, 10'000,
                                                    20'000, 40'000};
  c.compute_cycles = kCycleChoices[rng.next_below(cfg.tiny ? 3 : 5)];
  const std::uint64_t rec = rng.next_below(4);
  c.recovery = rec == 0   ? fault::RecoveryPolicy::kNone
               : rec <= 2 ? fault::RecoveryPolicy::kWatchdogRestart
                          : fault::RecoveryPolicy::kWatchdogRemap;
  // Watchdog period: half the draws are absolute (2..30 us, exercising
  // the give-up and drop paths), half are fractions of one compute block
  // so the supervisor routinely restarts a core while the pre-crash end
  // event is still pending — the regime the compute-integrity invariant
  // and the seeded defect live in. A period shorter than the block is
  // what lets the re-issue overlap the abandoned reservation window.
  const DurationPs block = static_cast<DurationPs>(c.compute_cycles) * 2'500;
  const std::uint64_t wdt_pick = rng.next_below(6);
  switch (wdt_pick) {
    case 0: c.watchdog_timeout = microseconds(2); break;
    case 1: c.watchdog_timeout = microseconds(8); break;
    case 2: c.watchdog_timeout = microseconds(30); break;
    case 3: c.watchdog_timeout = block / 2; break;
    case 4: c.watchdog_timeout = block * 3 / 4; break;
    default: c.watchdog_timeout = block * 3 / 2; break;
  }
  c.watchdog_timeout = std::max(c.watchdog_timeout, microseconds(2));

  c.graph_tasks = static_cast<std::uint32_t>(
      3 + rng.next_below(cfg.tiny ? 3 : 8));
  c.dynamic_mapper = rng.next_bool(0.5);

  c.tenants = static_cast<std::uint32_t>(1 + rng.next_below(cfg.tiny ? 2 : 4));
  c.jobs_per_tenant =
      static_cast<std::uint32_t>(1 + rng.next_below(cfg.tiny ? 2 : 5));
  c.static_admission = rng.next_bool(0.25);

  // Directed overrides pin the cell axes after the draws, leaving the
  // rest of the case random.
  const DirectedTarget* t = cfg.target;
  if (t != nullptr) {
    c.queue = t->policy;
    c.tiles = t->parallel ? std::max<std::uint32_t>(2, c.tiles) : 1;
    c.tiles = std::min(c.tiles, c.cores);
  }

  // The fault plan. A quarter of eligible cases stay fault-free (the
  // "none" coverage column and the strict liveness oracle); the rest draw
  // 1..5 expected events inside a window estimated to bracket the run.
  const bool want_faults =
      family_faultable(c.family) &&
      (t != nullptr ? t->kind != CoverageCell::kFaultFree
                    : !rng.next_bool(0.25));
  if (want_faults) {
    fault::RandomSpec spec;
    TimePs window = 0;
    if (c.family == Family::kFaultPipeline) {
      // Healthy makespan estimate: a depth-`cores` pipeline streams
      // `items` through stages of compute_cycles each (2500 ps/cycle at
      // 400 MHz), plus slack for jitter and channel hops.
      window = static_cast<TimePs>(
          (c.items + c.cores + 1) * c.compute_cycles * 2'500 * 14 / 10);
    } else {
      // Free-running workloads finish within tens of microseconds per
      // scale step; late events just idle the drained kernel.
      window = microseconds(40) * c.scale;
    }
    // 2..9 expected events: enough that several land inside the early
    // fill phase, where a crash can race pending compute-end events.
    spec.rate_per_ms = static_cast<double>(2 + rng.next_below(8)) * 1e9 /
                       static_cast<double>(window);
    spec.window_start = 0;
    spec.window_end = window;
    spec.num_cores = c.cores;
    spec.num_links = static_cast<std::uint32_t>(fault::degradable_links(
        c.platform_config(sim::QueuePolicy::kCalendar, false)));
    spec.mem_base = sim::kSharedBase;
    spec.mem_size = sim::PlatformConfig{}.shared_mem_bytes;
    if (t != nullptr && t->kind >= 0) {
      spec.only_kind(static_cast<fault::FaultKind>(t->kind));
      spec.rate_per_ms *= 2.0;  // single-kind plans must not stay empty
    }
    c.plan = fault::FaultPlan::random(rng.next_u64(), spec);
  }
  return c;
}

}  // namespace rw::fuzz
