// PMU model: hardware-style performance counters for the virtual platform.
//
// Sec. VII argues that virtual platforms beat real silicon for software
// optimization because observability is non-intrusive and complete. The
// Pmu is that observability made concrete: it is a sim::Observer that
// accumulates, per core and per fabric, exactly the counters a hardware
// performance-monitoring unit would expose — busy/stall cycles, memory
// accesses split local vs shared, DMA bytes, bus contention, NoC hops and
// per-link occupancy. Counting never feeds back into the simulation
// (observers see decisions already taken), so attaching a Pmu leaves every
// simulated timestamp bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/observer.hpp"

namespace rw::perf {

/// Per-core counter block (one per PE, plus one unattributed block for
/// accesses issued without a core identity, e.g. DMA block copies).
struct CoreCounters {
  Cycles busy_cycles = 0;       // cycles reserved on the core
  Cycles stall_cycles = 0;      // memory access-latency cycles
  DurationPs busy_ps = 0;       // wall simulated time the core was reserved
  std::uint64_t reservations = 0;
  std::uint64_t compute_blocks = 0;  // labelled blocks retired
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
  std::uint64_t local_accesses = 0;   // own scratchpad
  std::uint64_t shared_accesses = 0;  // shared memory / remote scratchpad
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t freq_changes = 0;

  /// Cycles not accounted to memory stalls, at the model's IPC=1
  /// abstraction — the closest this TLM gets to an instruction count.
  [[nodiscard]] Cycles approx_instructions() const {
    return busy_cycles > stall_cycles ? busy_cycles - stall_cycles : 0;
  }
  /// Idle time within a horizon (busy time can exceed the horizon when
  /// work was reserved past the last event; clamp at zero).
  [[nodiscard]] DurationPs idle_ps(TimePs horizon) const {
    return horizon > busy_ps ? horizon - busy_ps : 0;
  }
  [[nodiscard]] double utilization(TimePs horizon) const {
    return horizon == 0 ? 0.0
                        : static_cast<double>(busy_ps) /
                              static_cast<double>(horizon);
  }

  bool operator==(const CoreCounters&) const = default;
};

/// Interconnect counter block (one per platform).
struct IcnCounters {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  DurationPs wait_ps = 0;  // time queued behind busy fabric (contention)
  DurationPs busy_ps = 0;  // grant-to-delivery occupancy
  std::uint64_t hops = 0;  // NoC route hops (0 for shared-bus transfers)
  /// Per-directed-link occupancy; the shared bus is link 0, the mesh
  /// indexes node*4+direction. Grown on demand, so only links that ever
  /// carried traffic appear.
  std::vector<DurationPs> link_busy_ps;

  /// Utilization of link `i` over a horizon (0 when never used).
  [[nodiscard]] double link_utilization(std::size_t i, TimePs horizon) const {
    if (horizon == 0 || i >= link_busy_ps.size()) return 0.0;
    return static_cast<double>(link_busy_ps[i]) /
           static_cast<double>(horizon);
  }

  bool operator==(const IcnCounters&) const = default;
};

/// DMA counter block.
struct DmaCounters {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  DurationPs busy_ps = 0;

  bool operator==(const DmaCounters&) const = default;
};

/// A point-in-time copy of every counter, tagged with the simulated time it
/// was taken. Windowed metrics (epochs, governor utilization) are deltas
/// between snapshots.
struct PmuSnapshot {
  TimePs at = 0;
  std::vector<CoreCounters> cores;
  CoreCounters unattributed;
  IcnCounters icn;
  DmaCounters dma;

  bool operator==(const PmuSnapshot&) const = default;
};

/// The counting observer. Attach with sim::Platform::attach(pmu) (a
/// PerfSession does); detach (or never attach) for a bit-identical
/// unobserved run. It consumes no trace records, so attaching it leaves
/// an untraced platform's tracer inactive.
class Pmu final : public sim::Observer {
 public:
  explicit Pmu(std::size_t num_cores)
      : cores_(num_cores) {}

  // sim::Observer
  void on_core_reserve(sim::CoreId core, Cycles cycles, TimePs start,
                       TimePs finish, HertzT freq) override;
  void on_compute_block(sim::CoreId core, const std::string& label,
                        Cycles cycles, TimePs start, TimePs finish) override;
  void on_freq_change(sim::CoreId core, HertzT from, HertzT to) override;
  void on_mem_access(const sim::MemAccess& acc) override;
  void on_transfer(sim::CoreId src, sim::CoreId dst, std::uint64_t bytes,
                   DurationPs wait, DurationPs duration,
                   std::uint32_t hops) override;
  void on_link_busy(std::size_t link, DurationPs busy) override;
  void on_dma(std::uint64_t bytes, TimePs start, TimePs finish) override;

  [[nodiscard]] std::size_t num_cores() const { return cores_.size(); }
  [[nodiscard]] const CoreCounters& core(std::size_t i) const {
    return cores_.at(i);
  }
  [[nodiscard]] const CoreCounters& unattributed() const {
    return unattributed_;
  }
  [[nodiscard]] const IcnCounters& icn() const { return icn_; }
  [[nodiscard]] const DmaCounters& dma() const { return dma_; }

  /// Copy every counter, stamped with `now`.
  [[nodiscard]] PmuSnapshot snapshot(TimePs now) const;


 private:
  CoreCounters& bucket(sim::CoreId core) {
    if (core.is_valid() && core.index() < cores_.size())
      return cores_[core.index()];
    return unattributed_;
  }

  std::vector<CoreCounters> cores_;
  CoreCounters unattributed_;
  IcnCounters icn_;
  DmaCounters dma_;
};

}  // namespace rw::perf
