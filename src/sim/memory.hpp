// Platform memory model.
//
// Sec. II argues for "strict enforcement of locality, at least for on-chip
// memory": per-core scratchpads plus an optional small shared region. The
// model backs every region with real bytes so that races, corruption and
// debugger inspection (Sec. VII: "illegal access to memories ... can be
// easily identified") are observable facts, not abstractions. Locality
// enforcement is optional and, when enabled, faults any access by a core to
// another core's local memory.
//
// Backing store: each region is a table of 4 KiB pages. A page is
// allocated, zeroed, on its first write; a byte never written reads 0 and
// reading it allocates nothing. So building a platform costs a page table,
// not a zero fill of every region (a demo touches a few KiB of the 1 MiB
// shared region and 64 KiB scratchpads). An 8-byte access that stays inside
// one page, nearly every access a core makes, takes an inline path in
// read_u64/write_u64: one shift, one null test, one 8-byte copy. Only
// page-straddling words, blocks, peek and poke loop over pages; sending
// every access through that loop cost more in run() than the build saved.
// Pages are plain heap blocks, not mmap'ed OS zero pages: munmap and page
// faults contend across threads, which halved a fuzz batch's throughput on
// a 4-thread harness pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace rw::sim {

struct RegionTag {};
using RegionId = Id<RegionTag>;

/// Bytes per page of a region's backing store; a power of two.
inline constexpr unsigned kPageBits = 12;
inline constexpr std::uint64_t kPageSize = std::uint64_t{1} << kPageBits;

/// One mapped memory region.
struct Region {
  RegionId id{};
  std::string name;
  Addr base = 0;
  std::uint64_t size = 0;
  Cycles access_latency = 1;   // cycles per access at the accessing core
  CoreId owner{};              // valid => core-local scratchpad
  /// Page i holds the bytes at offsets [i * kPageSize, (i + 1) * kPageSize)
  /// from `base`; null until its first write (it reads as zeros). The last
  /// page may extend past `size`; those bytes are never reachable. Only
  /// the region's own tile writes it (the cross-tile guard), so the table
  /// takes no lock.
  std::vector<std::unique_ptr<std::uint8_t[]>> pages;

  /// Tile partition (parallel.hpp): the region's state belongs to one
  /// tile, and accesses are timestamped/traced on that tile's kernel and
  /// tracer. Null clock/trace means tile 0 — the MemorySystem's own
  /// kernel and tracer — which is every region on an untiled platform.
  std::uint32_t tile = 0;
  Kernel* clock = nullptr;
  Tracer* trace = nullptr;

  /// True when [a, a + len) lies inside the region. Written without
  /// a + len so an access near 2^64 cannot wrap into range.
  [[nodiscard]] bool contains(Addr a, std::uint64_t len) const {
    return a >= base && len <= size && a - base <= size - len;
  }
  [[nodiscard]] bool is_local() const { return owner.is_valid(); }
};

/// Address-mapped collection of regions. Every accessor call reaches the
/// observers of the tracer's list once, as Observer::on_mem_access.
class MemorySystem {
 public:
  MemorySystem(Kernel& kernel, Tracer& tracer)
      : kernel_(kernel), tracer_(tracer), observers_(&tracer.observers()) {}

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  /// Map a new region. It must not overlap an existing region, and
  /// `base + size` must fit in 64 bits (std::invalid_argument otherwise).
  /// Every byte reads 0 until written; no page is allocated here.
  RegionId add_region(std::string name, Addr base, std::uint64_t size,
                      Cycles access_latency, CoreId owner = CoreId{});

  /// The region holding the byte at `a`, or nullptr.
  [[nodiscard]] const Region* find_region(Addr a) const;
  [[nodiscard]] const Region& region(RegionId id) const {
    return regions_.at(id.index());
  }
  [[nodiscard]] const std::vector<Region>& regions() const {
    return regions_;
  }

  /// When enabled, a core touching another core's local region is a
  /// locality violation: the access is counted and (configurably) faulted.
  void set_enforce_locality(bool on) { enforce_locality_ = on; }
  [[nodiscard]] std::uint64_t locality_violations() const {
    return locality_violations_.load(std::memory_order_relaxed);
  }

  /// Typed accessors. Addresses must fall inside a mapped region; access
  /// outside any region throws (the "illegal access" of Sec. VII is
  /// reported through the trace before the throw).
  std::uint64_t read_u64(CoreId core, Addr a);
  void write_u64(CoreId core, Addr a, std::uint64_t v);
  void read_block(CoreId core, Addr a, std::span<std::uint8_t> out);
  void write_block(CoreId core, Addr a, std::span<const std::uint8_t> in);

  /// Raw (unobserved, untraced, zero-latency) access for loaders and
  /// checkers.
  void poke(Addr a, std::span<const std::uint8_t> in);
  void peek(Addr a, std::span<std::uint8_t> out) const;

  /// Tile partition plumbing (set by Platform when num_tiles > 1).
  /// set_region_context() rebinds a region to a tile's kernel/tracer;
  /// set_core_tiles() installs the core -> tile map that arms the
  /// cross-tile access guard: a core touching a region on another tile is
  /// a programming error under conservative sync (the tiles' clocks are
  /// not ordered inside an epoch), so the access throws. The shared
  /// region stays on tile 0 and is only reachable from tile-0 cores.
  void set_region_context(RegionId id, std::uint32_t tile, Kernel* clock,
                          Tracer* trace);
  void set_core_tiles(std::vector<std::uint32_t> tiles) {
    core_tiles_ = std::move(tiles);
  }

 private:
  static constexpr std::size_t kNoRegion = static_cast<std::size_t>(-1);
  /// Index in regions_ of the region holding [a, a + len), or kNoRegion.
  /// The one region lookup: every accessor, find_region,
  /// poke and peek go through it. Regions never overlap, so only the last
  /// region (by base) starting at or below `a` can hold the access: one
  /// binary search over by_base_ and one contains() check. It reads no
  /// mutable state, so tiles may look up concurrently.
  [[nodiscard]] std::size_t lookup(Addr a, std::uint64_t len) const;
  Region& region_for(Addr a, std::uint64_t len, CoreId core, bool is_write);
  /// Trace and observe one access to `r`. The trace record's second
  /// payload is `b`; the observers' MemAccess carries `value`. Inline and
  /// defined in memory.cpp, its only caller: the accessors keep it in
  /// their bodies, so an untraced access with no observer costs two tests
  /// there, not a call.
  inline void observe(const Region& r, CoreId core, Addr a,
                      std::uint32_t size, bool is_write, std::uint64_t b,
                      std::uint64_t value);
  [[nodiscard]] Kernel& clock_of(const Region& r) const {
    return r.clock != nullptr ? *r.clock : kernel_;
  }
  [[nodiscard]] Tracer& tracer_of(const Region& r) const {
    return r.trace != nullptr ? *r.trace : tracer_;
  }

  Kernel& kernel_;
  Tracer& tracer_;
  const ObserverList* observers_;
  std::vector<Region> regions_;
  // Indices into regions_ of the non-empty regions, sorted by base. An
  // empty region holds no byte, so no lookup can return it.
  std::vector<std::uint32_t> by_base_;
  std::vector<std::uint32_t> core_tiles_;  // empty == untiled, no guard
  bool enforce_locality_ = false;
  // Atomic only because two tiles may fault locally at the same instant;
  // the count itself stays deterministic (each tile's faults are).
  std::atomic<std::uint64_t> locality_violations_{0};
};

}  // namespace rw::sim
