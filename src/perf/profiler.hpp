// Simulated-time sampling profiler.
//
// A periodic sampler that rides the event kernel: every `period` of
// simulated time it inspects each core and attributes one sample to the
// compute-block label the core is executing (the same labels the vpdebug
// trace carries), or to <idle>/<reserved>. Because sampling happens at
// simulated timestamps, the profile is a pure function of the workload —
// byte-identical across runs and across harness thread counts.
//
// Two operating modes mirror the paper's intrusive-vs-non-intrusive
// debugging argument (Sec. VII):
//   * cost_cycles == 0 — the virtual-platform profiler: observation is
//     free, the workload's timing is untouched (the non-intrusive claim);
//   * cost_cycles > 0 — a model of a target-resident sampling agent that
//     steals `cost_cycles` per sample on every core, so benches can
//     measure what on-silicon profiling would have cost (bench_e12).
//
// Ticks are kernel daemon events, so the sampler never keeps the kernel
// alive on its own and simulations still terminate with kernel.run().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/platform.hpp"

namespace rw::perf {

struct ProfilerConfig {
  DurationPs period = microseconds(10);
  /// Cycles stolen from every core per sample (0 = non-intrusive).
  Cycles cost_cycles = 0;
};

/// Label buckets for samples that hit no labelled compute block.
inline constexpr const char* kIdleLabel = "<idle>";
inline constexpr const char* kReservedLabel = "<reserved>";

class SamplingProfiler {
 public:
  SamplingProfiler(sim::Platform& platform, ProfilerConfig cfg);

  /// Schedule the first tick (idempotent). On a tiled platform one daemon
  /// rides each tile's kernel and samples only that tile's cores — a
  /// tile's profile cells are written exclusively from its own worker, so
  /// sampling stays race-free and bit-identical under parallel execution.
  void start();

  /// Ticks taken so far (each tick samples every core once; on a tiled
  /// platform this counts tile 0's daemon, the reference clock).
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] const ProfilerConfig& config() const { return cfg_; }

  struct Entry {
    std::size_t core = 0;
    std::string label;
    std::uint64_t samples = 0;

    bool operator==(const Entry&) const = default;
  };

  /// The accumulated profile: entries ordered by (core, label) with idle
  /// samples split out, so exports and equality checks are deterministic.
  struct Profile {
    std::vector<Entry> entries;    // busy samples only, (core,label) sorted
    std::uint64_t total_samples = 0;  // ticks * cores
    std::uint64_t busy_samples = 0;
    std::uint64_t idle_samples = 0;


    bool operator==(const Profile&) const = default;
  };

  [[nodiscard]] Profile profile() const;

 private:
  void tick(std::uint32_t tile);

  sim::Platform& platform_;
  ProfilerConfig cfg_;
  bool started_ = false;
  std::uint64_t ticks_ = 0;
  // Dense per-core accumulation; label -> count kept sorted at export.
  struct Cell {
    std::string label;
    std::uint64_t count = 0;
  };
  std::vector<std::vector<Cell>> per_core_;  // [core] -> cells
  std::vector<std::uint64_t> idle_per_core_;
};

/// How well a sampled profile matches the exact per-(core,label) busy-time
/// distribution recoverable from the execution trace: the overlap
/// coefficient sum(min(sampled_share, exact_share)) over all (core,label)
/// pairs, in [0,1], 1 = perfect attribution. Requires the platform to have
/// run with trace_enabled.
double attribution_accuracy(const SamplingProfiler::Profile& profile,
                            const std::vector<sim::TraceEvent>& trace,
                            std::size_t num_cores);

}  // namespace rw::perf
