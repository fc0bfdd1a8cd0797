// Concurrency-bug victim workloads (Sec. VII's debugging subjects).
//
// The classic MPSoC defect catalogue: a shared-counter race (lost
// updates), a deadlock on hardware semaphores, and a wrongly-masked
// interrupt. Each is seeded and parameterized so experiments can measure
// how often the defect manifests and how debugging technique affects
// reproduction (the "Heisenbug" effect).
#pragma once

#include <cstdint>

#include "sim/platform.hpp"

namespace rw::vpdebug {

struct RacyCounterConfig {
  std::uint64_t increments_per_core = 50;
  std::uint64_t seed = 1;
  /// Intrusive-debugging model: extra stall injected on core 0 at every
  /// counter access (a JTAG single-core halt perturbs exactly like this;
  /// 0 = non-intrusive).
  DurationPs probe_stall_ps = 0;
  bool use_semaphore = false;  // the fixed version takes hwsem cell 0
};

struct RacyCounterResult {
  std::uint64_t expected = 0;
  std::uint64_t observed = 0;
  [[nodiscard]] std::uint64_t lost_updates() const {
    return expected - observed;
  }
  [[nodiscard]] bool bug_manifested() const { return observed != expected; }
};

/// Two cores increment a shared counter with an unprotected read-modify-
/// write. Returns the lost-update count. Deterministic in (platform
/// config, cfg.seed).
RacyCounterResult run_racy_counter(sim::Platform& platform,
                                   const RacyCounterConfig& cfg);

/// Address the shared counter lives at (for watchpoints).
sim::Addr racy_counter_addr(const sim::Platform& platform);

struct MaskedIrqResult {
  bool handler_ran = false;
  bool irq_line_high = false;  // visible on the wire even when masked
};

/// The Sec. VII scenario: firmware masks a timer interrupt by mistake and
/// waits for a flag its handler would set. On real hardware the developer
/// sees only a hang; on the virtual platform the pending line is visible.
MaskedIrqResult run_masked_irq_bug(sim::Platform& platform,
                                   DurationPs run_for = microseconds(500));

}  // namespace rw::vpdebug
