// Recovery policies and the watchdog-driven supervisor (rw::fault).
//
// Detection is the watchdog's job; this module decides what to do next.
// Three policies, matching E14's sweep axes:
//   * kNone            — no watchdog, no action: crashes deadlock or
//                        starve the pipeline (the baseline the paper's
//                        predictability argument warns about),
//   * kWatchdogRestart — expire -> reset every crashed core in place
//                        (parked work re-executes where it was),
//   * kWatchdogRemap   — expire -> migrate the crashed core's parked work
//                        onto the least-loaded survivor and alias future
//                        submissions there (degradation-aware remapping;
//                        the static-schedule analogue lives in
//                        maps::remap_on_failure).
// Either way the supervisor force-releases hardware semaphores held by a
// dead core — the livelock breaker tests/test_sim_fault.cpp asserts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "fault/injector.hpp"
#include "fault/watchdog.hpp"
#include "sim/platform.hpp"

namespace rw::fault {

enum class RecoveryPolicy : std::uint8_t {
  kNone,
  kWatchdogRestart,
  kWatchdogRemap,
};

const char* recovery_policy_name(RecoveryPolicy p);

/// Bounded exponential backoff for retry loops (detection primitive used
/// alongside Channel::recv_for/send_for). delay_for(k) is deterministic.
struct RetryPolicy {
  int max_attempts = 5;
  DurationPs initial_delay = nanoseconds(500);
  std::uint32_t multiplier = 2;  // integral so delays stay exact

  [[nodiscard]] DurationPs delay_for(int attempt) const {
    DurationPs d = initial_delay;
    for (int i = 0; i < attempt; ++i) d *= multiplier;
    return d;
  }
  /// Sum over all attempts (how long a full retry cycle can take).
  [[nodiscard]] DurationPs total_budget() const {
    DurationPs sum = 0;
    for (int i = 0; i < max_attempts; ++i) sum += delay_for(i);
    return sum;
  }
};

struct SupervisorConfig {
  RecoveryPolicy policy = RecoveryPolicy::kWatchdogRestart;
  DurationPs watchdog_timeout = microseconds(20);
};

/// Listens on the watchdog IRQ and applies the configured policy.
class RecoverySupervisor {
 public:
  RecoverySupervisor(sim::Platform& platform, WatchdogPeripheral& wdt,
                     SupervisorConfig cfg, FaultTimeline* timeline = nullptr);

  /// Install the IRQ handler and arm the watchdog (kNone: no-op).
  void start();
  /// Disarm (call on workload completion so the run can end).
  void finish();
  /// Application progress note: resets the futile-expiry counter.
  void note_progress() { ++progress_; }

  /// Where work bound for logical core `idx` should actually run after
  /// remaps (identity until a remap happens). Chases aliases, so double
  /// failures resolve to a live core.
  [[nodiscard]] std::size_t core_for(std::size_t idx) const;

  [[nodiscard]] std::uint64_t recoveries() const { return restarts_ + remaps_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  [[nodiscard]] std::uint64_t remaps() const { return remaps_; }
  [[nodiscard]] std::uint64_t sem_releases() const { return sem_releases_; }
  [[nodiscard]] bool gave_up() const { return gave_up_; }
  [[nodiscard]] DurationPs max_recovery_latency() const {
    return max_latency_;
  }
  [[nodiscard]] DurationPs total_recovery_latency() const {
    return total_latency_;
  }

 private:
  void on_expiry();
  void release_sems_of(sim::CoreId dead);

  sim::Platform& platform_;
  WatchdogPeripheral& wdt_;
  SupervisorConfig cfg_;
  FaultTimeline* timeline_;
  std::vector<std::size_t> alias_;  // logical core -> live core
  std::uint64_t progress_ = 0;
  std::uint64_t progress_at_last_expiry_ = 0;
  std::uint64_t futile_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t remaps_ = 0;
  std::uint64_t sem_releases_ = 0;
  DurationPs max_latency_ = 0;
  DurationPs total_latency_ = 0;
  bool gave_up_ = false;
  bool started_ = false;
};

}  // namespace rw::fault
