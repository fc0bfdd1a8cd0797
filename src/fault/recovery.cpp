#include "fault/recovery.hpp"

#include <limits>

namespace rw::fault {
namespace {

/// Consecutive expiries with no progress and nothing recoverable before
/// the supervisor disarms the watchdog and lets the run wind down (the
/// termination guarantee for unrecoverable situations).
constexpr std::uint64_t kMaxFutileExpiries = 3;

}  // namespace

const char* recovery_policy_name(RecoveryPolicy p) {
  switch (p) {
    case RecoveryPolicy::kNone: return "none";
    case RecoveryPolicy::kWatchdogRestart: return "watchdog_restart";
    case RecoveryPolicy::kWatchdogRemap: return "watchdog_remap";
  }
  return "?";
}

RecoverySupervisor::RecoverySupervisor(sim::Platform& platform,
                                       WatchdogPeripheral& wdt,
                                       SupervisorConfig cfg,
                                       FaultTimeline* timeline)
    : platform_(platform), wdt_(wdt), cfg_(cfg), timeline_(timeline) {
  alias_.resize(platform_.core_count());
  for (std::size_t i = 0; i < alias_.size(); ++i) alias_[i] = i;
}

void RecoverySupervisor::start() {
  if (cfg_.policy == RecoveryPolicy::kNone || started_) return;
  started_ = true;
  platform_.irqc().set_handler(wdt_.irq_line(), [this](std::size_t line) {
    platform_.irqc().ack(line);
    on_expiry();
  });
  wdt_.arm(cfg_.watchdog_timeout);
}

void RecoverySupervisor::finish() {
  if (!started_) return;
  wdt_.disarm();
}

std::size_t RecoverySupervisor::core_for(std::size_t idx) const {
  std::size_t cur = idx % alias_.size();
  // Chase aliases (double failures); bounded by the core count.
  for (std::size_t hops = 0; hops < alias_.size(); ++hops) {
    const std::size_t next = alias_[cur];
    if (next == cur) break;
    cur = next;
  }
  return cur;
}

void RecoverySupervisor::release_sems_of(sim::CoreId dead) {
  auto& sems = platform_.hwsem();
  for (std::size_t cell = 0; cell < sems.num_cells(); ++cell) {
    if (sems.held(cell) && sems.holder(cell) == dead) {
      sems.force_release(cell);
      ++sem_releases_;
      if (timeline_)
        timeline_->record(platform_.kernel().now(), "recovery.sem_release",
                          dead.value(), cell, 0);
    }
  }
}

void RecoverySupervisor::on_expiry() {
  if (gave_up_) return;
  const TimePs now = platform_.kernel().now();

  // Find crashed cores with something left to recover. Under kWatchdogRemap
  // a dead core STAYS dead after handling (alias redirected), so it only
  // reappears here when new work parked on it since — otherwise every
  // expiry would look recoverable and the watchdog could never conclude
  // the system is beyond help.
  std::vector<std::size_t> dead;
  for (std::size_t c = 0; c < platform_.core_count(); ++c) {
    auto& core = platform_.core(c);
    if (!core.failed()) continue;
    if (cfg_.policy == RecoveryPolicy::kWatchdogRemap && alias_[c] != c &&
        core.parked_count() == 0)
      continue;  // already remapped, nothing new parked
    dead.push_back(c);
  }

  const bool progressed = progress_ != progress_at_last_expiry_;
  progress_at_last_expiry_ = progress_;
  if (dead.empty()) {
    futile_ = progressed ? 0 : futile_ + 1;
    if (futile_ >= kMaxFutileExpiries) {
      gave_up_ = true;
      wdt_.disarm();
      if (timeline_) timeline_->record(now, "recovery.gave_up", 0, futile_, 0);
    }
    return;
  }
  futile_ = 0;

  for (const std::size_t c : dead) {
    auto& core = platform_.core(c);
    const DurationPs latency = now - core.last_fail_time();
    max_latency_ = std::max(max_latency_, latency);
    total_latency_ += latency;
    // Break semaphore livelocks before anything resumes: whatever the
    // dead core held, nobody can release it but us.
    release_sems_of(core.id());

    if (cfg_.policy == RecoveryPolicy::kWatchdogRestart) {
      core.recover();
      ++restarts_;
      if (timeline_)
        timeline_->record(now, "recovery.restart",
                          static_cast<std::uint32_t>(c), latency, 0);
    } else {  // kWatchdogRemap
      // Least-loaded healthy survivor; ties broken by index. The dead
      // core stays dead — future core_for(c) submissions land on the
      // survivor, and its parked work migrates there right now.
      std::size_t best = SIZE_MAX;
      TimePs best_busy = std::numeric_limits<TimePs>::max();
      for (std::size_t s = 0; s < platform_.core_count(); ++s) {
        if (platform_.core(s).failed()) continue;
        if (platform_.core(s).busy_until() < best_busy) {
          best_busy = platform_.core(s).busy_until();
          best = s;
        }
      }
      if (best == SIZE_MAX) {
        // Everyone is dead; nothing to migrate onto. Give up now.
        gave_up_ = true;
        wdt_.disarm();
        if (timeline_)
          timeline_->record(now, "recovery.gave_up", 0, futile_, 0,
                            "all_cores_dead");
        return;
      }
      alias_[c] = best;
      const std::size_t migrated =
          core.migrate_parked(platform_.core(best));
      ++remaps_;
      if (timeline_)
        timeline_->record(now, "recovery.remap", static_cast<std::uint32_t>(c),
                          latency, migrated);
    }
  }
}

}  // namespace rw::fault
