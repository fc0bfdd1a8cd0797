// Virtual platform assembly.
//
// A Platform is the "functionally accurate simulator of a SoC" of Sec. VII:
// cores, memory map, interconnect and the shared peripherals, all on one
// deterministic event kernel. Construction is configuration-driven so the
// benches can sweep core counts, interconnect types and frequencies.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/result.hpp"
#include "sim/core.hpp"
#include "sim/interconnect.hpp"
#include "sim/kernel.hpp"
#include "sim/memory.hpp"
#include "sim/parallel.hpp"
#include "sim/peripherals.hpp"
#include "sim/trace.hpp"

namespace rw::sim {

/// The fabric fields `interconnect`, `bus` and `mesh` come from
/// FabricConfig (interconnect.hpp).
struct PlatformConfig : FabricConfig {
  struct CoreCfg {
    PeClass cls = PeClass::kRisc;
    HertzT frequency = mhz(400);
    std::uint64_t scratchpad_bytes = 64 * 1024;
    /// Tile the core (and its scratchpad) belongs to when
    /// kernel.num_tiles > 1; must be < num_tiles (validate()).
    std::uint32_t tile = 0;
  };

  std::vector<CoreCfg> cores;

  /// Size of the shared region at kSharedBase; at most kMaxSharedMemBytes
  /// (validate()).
  std::uint64_t shared_mem_bytes = 1 << 20;
  Cycles shared_mem_latency = 12;  // cycles per access (uncontended)

  /// Event-queue implementation and calendar-wheel geometry. The policy
  /// choice must never be observable in simulation results; the kernel
  /// determinism tests hold platforms to that across the workload corpus.
  KernelConfig kernel;

  bool enforce_locality = false;
  bool trace_enabled = false;

  /// Typed validation of the shared-region size (at most
  /// kMaxSharedMemBytes), the fabric dimensions (validate_fabric) and the
  /// tiling parameters (kernel.num_tiles vs the core list, per-core tile
  /// indices, fabric lookahead). The Platform
  /// constructor enforces this; callers that want an error value instead
  /// of a throw check it first.
  [[nodiscard]] Status validate() const;

  /// Switch the fabric to the most nearly square mesh that holds every
  /// core: width ceil(sqrt(n)), height ceil(n / width).
  void use_square_mesh();

  /// Homogeneous platform: `n` identical RISC cores (Sec. II's preferred
  /// architecture).
  static PlatformConfig homogeneous(std::size_t n, HertzT freq = mhz(400));

  /// Heterogeneous example platform: RISC control cores + DSPs (the
  /// "wireless multimedia terminal" shape MAPS targets, Sec. IV).
  static PlatformConfig heterogeneous(std::size_t riscs, std::size_t dsps);
};

/// Fixed memory-map constants.
inline constexpr Addr kScratchpadBase = 0x1000'0000;
inline constexpr Addr kScratchpadStride = 0x0010'0000;
inline constexpr Addr kSharedBase = 0x8000'0000;
/// The shared region must end at or below 2^32, so it holds at most 2 GiB
/// and its page table (one pointer per 4 KiB page, memory.hpp) is at most
/// 4 MiB, however few pages are ever written.
inline constexpr std::uint64_t kMaxSharedMemBytes =
    (std::uint64_t{1} << 32) - kSharedBase;

/// IRQ line assignments.
inline constexpr std::size_t kIrqTimer = 0;
inline constexpr std::size_t kIrqDma = 1;
inline constexpr std::size_t kIrqSoftBase = 8;  // first software IRQ line

class Platform {
 public:
  explicit Platform(PlatformConfig cfg);
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] Kernel& kernel() { return kernel_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] MemorySystem& memory() { return memory_; }

  /// Tile partition (kernel.num_tiles > 1). Tile 0 is the platform's
  /// primary kernel/tracer — on an untiled platform it is the only one,
  /// and engine() is nullptr.
  [[nodiscard]] std::size_t tile_count() const {
    return 1 + extra_kernels_.size();
  }
  [[nodiscard]] Kernel& tile_kernel(std::uint32_t t) {
    return t == 0 ? kernel_ : *extra_kernels_.at(t - 1);
  }
  [[nodiscard]] Tracer& tile_tracer(std::uint32_t t) {
    return t == 0 ? tracer_ : *extra_tracers_.at(t - 1);
  }
  [[nodiscard]] std::uint32_t tile_of_core(std::size_t i) const {
    return cfg_.cores.at(i).tile;
  }
  [[nodiscard]] TiledEngine* engine() { return engine_.get(); }

  /// Run the platform: the tiled engine when one exists, the plain kernel
  /// otherwise. Use these instead of kernel().run() in code that must
  /// work on any num_tiles. now() is the max of the tile clocks.
  void run(std::uint64_t max_events = UINT64_MAX);
  [[nodiscard]] TimePs now() const;
  [[nodiscard]] Interconnect& interconnect() { return *icn_; }
  [[nodiscard]] InterruptController& irqc() { return *irqc_; }
  [[nodiscard]] TimerPeripheral& timer() { return *timer_; }
  [[nodiscard]] DmaEngine& dma() { return *dma_; }
  [[nodiscard]] HwSemaphores& hwsem() { return *hwsem_; }

  [[nodiscard]] std::size_t core_count() const { return cores_.size(); }
  [[nodiscard]] Core& core(CoreId id) { return *cores_.at(id.index()); }
  [[nodiscard]] Core& core(std::size_t i) { return *cores_.at(i); }
  [[nodiscard]] const std::vector<std::unique_ptr<Core>>& cores() const {
    return cores_;
  }

  /// Memory-map lookups.
  [[nodiscard]] Addr scratchpad_base(CoreId id) const {
    return kScratchpadBase + id.value() * kScratchpadStride;
  }
  [[nodiscard]] Addr shared_base() const { return kSharedBase; }

  /// All peripherals, for the debugger's register view.
  [[nodiscard]] std::vector<Peripheral*> peripherals();

  /// Attach an observer to the whole platform: every tile's tracer, the
  /// memory system, every signal, the cores, the fabric and the DMA engine
  /// report to it (observer.hpp). Observers are called in attach order;
  /// attach each one once. Detaching an unattached observer changes
  /// nothing. Attach and detach between runs only. With nothing attached the
  /// simulation is bit-identical to an unobserved run.
  void attach(Observer& o) { observers_.attach(o); }
  void detach(Observer& o) { observers_.detach(o); }

  [[nodiscard]] const PlatformConfig& config() const { return cfg_; }

 private:
  PlatformConfig cfg_;
  Kernel kernel_;
  // Declared before every component that holds a pointer to it.
  ObserverList observers_;
  Tracer tracer_;
  // Kernels/tracers of tiles 1..N-1 (tile 0 is kernel_/tracer_ above).
  // Declared before memory_ and cores_, which hold pointers into them.
  std::vector<std::unique_ptr<Kernel>> extra_kernels_;
  std::vector<std::unique_ptr<Tracer>> extra_tracers_;
  MemorySystem memory_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::optional<Interconnect> icn_;  // built once the config is checked
  std::unique_ptr<InterruptController> irqc_;
  std::unique_ptr<TimerPeripheral> timer_;
  std::unique_ptr<DmaEngine> dma_;
  std::unique_ptr<HwSemaphores> hwsem_;
  std::unique_ptr<TiledEngine> engine_;  // only when kernel.num_tiles > 1
};

}  // namespace rw::sim
