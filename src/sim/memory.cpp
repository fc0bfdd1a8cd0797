#include "sim/memory.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/strings.hpp"

namespace rw::sim {
namespace {

constexpr std::uint64_t kPageMask = kPageSize - 1;

/// The page holding region offset `off`, allocated zeroed if never written.
std::uint8_t* page_for_write(Region& r, std::uint64_t off) {
  std::unique_ptr<std::uint8_t[]>& p = r.pages[off >> kPageBits];
  if (p == nullptr) p = std::make_unique<std::uint8_t[]>(kPageSize);
  return p.get();
}

/// Copy the region's bytes at offsets [off, off + out.size()) into `out`,
/// page by page; a page never written reads as zeros.
void copy_out(const Region& r, std::uint64_t off, std::span<std::uint8_t> out) {
  for (std::size_t done = 0; done < out.size();) {
    const std::uint64_t at = off + done;
    const std::uint64_t in_page = at & kPageMask;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - in_page, out.size() - done));
    if (const std::uint8_t* p = r.pages[at >> kPageBits].get())
      std::memcpy(out.data() + done, p + in_page, n);
    else
      std::memset(out.data() + done, 0, n);
    done += n;
  }
}

/// Copy `in` to the region's offsets [off, off + in.size()), page by page.
void copy_in(Region& r, std::uint64_t off, std::span<const std::uint8_t> in) {
  for (std::size_t done = 0; done < in.size();) {
    const std::uint64_t at = off + done;
    const std::uint64_t in_page = at & kPageMask;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - in_page, in.size() - done));
    std::memcpy(page_for_write(r, at) + in_page, in.data() + done, n);
    done += n;
  }
}

}  // namespace

RegionId MemorySystem::add_region(std::string name, Addr base,
                                  std::uint64_t size, Cycles access_latency,
                                  CoreId owner) {
  if (size > ~base)
    throw std::invalid_argument("memory region '" + name +
                                "' overflows the 64-bit address space");
  for (const auto& r : regions_) {
    const bool overlaps = base < r.base + r.size && r.base < base + size;
    if (overlaps)
      throw std::invalid_argument("memory region '" + name + "' overlaps '" +
                                  r.name + "'");
  }
  Region r;
  r.id = RegionId{static_cast<std::uint32_t>(regions_.size())};
  r.name = std::move(name);
  r.base = base;
  r.size = size;
  r.access_latency = access_latency;
  r.owner = owner;
  // Counted without size + kPageSize - 1, which wraps for sizes near 2^64.
  r.pages.resize((size >> kPageBits) + ((size & kPageMask) != 0 ? 1 : 0));
  if (size > 0) {
    const auto at = std::upper_bound(
        by_base_.begin(), by_base_.end(), base,
        [&](Addr b, std::uint32_t i) { return b < regions_[i].base; });
    by_base_.insert(at, r.id.value());
  }
  regions_.push_back(std::move(r));
  return regions_.back().id;
}

void MemorySystem::set_region_context(RegionId id, std::uint32_t tile,
                                      Kernel* clock, Tracer* trace) {
  Region& r = regions_.at(id.index());
  r.tile = tile;
  r.clock = clock;
  r.trace = trace;
}

std::size_t MemorySystem::lookup(Addr a, std::uint64_t len) const {
  const auto after = std::upper_bound(
      by_base_.begin(), by_base_.end(), a,
      [&](Addr x, std::uint32_t i) { return x < regions_[i].base; });
  if (after == by_base_.begin()) return kNoRegion;
  const std::uint32_t i = *(after - 1);
  return regions_[i].contains(a, len) ? i : kNoRegion;
}

const Region* MemorySystem::find_region(Addr a) const {
  const std::size_t i = lookup(a, 1);
  return i == kNoRegion ? nullptr : &regions_[i];
}

Region& MemorySystem::region_for(Addr a, std::uint64_t len, CoreId core,
                                 bool is_write) {
  if (const std::size_t i = lookup(a, len); i != kNoRegion) {
    Region& r = regions_[i];
    // Under tiled execution a region is only reachable from cores on its
    // own tile: the tiles' clocks are not ordered inside an epoch, so a
    // cross-tile load/store would have no defined timestamp (use a
    // TileLink or DMA through the fabric instead).
    if (!core_tiles_.empty() && core.is_valid() &&
        core.index() < core_tiles_.size() &&
        core_tiles_[core.index()] != r.tile) {
      throw std::logic_error(strformat(
          "cross-tile memory access: core%u (tile %u) touched %s (tile %u)",
          core.value(), core_tiles_[core.index()], r.name.c_str(), r.tile));
    }
    if (enforce_locality_ && r.is_local() && core.is_valid() &&
        r.owner != core) {
      locality_violations_.fetch_add(1, std::memory_order_relaxed);
      tracer_of(r).record(clock_of(r).now(),
                          is_write ? TraceKind::kMemWrite : TraceKind::kMemRead,
                          core, "LOCALITY_VIOLATION:" + r.name, a, len);
      throw std::runtime_error(strformat(
          "locality violation: core%u accessed %s (owned by core%u)",
          core.value(), r.name.c_str(), r.owner.value()));
    }
    return r;
  }
  // An unmapped access has no region and hence no tile context; recording
  // it on the tile-0 tracer is only safe when the caller is tile 0 (the
  // throw below terminates the run either way).
  const bool tile0 = core_tiles_.empty() || !core.is_valid() ||
                     core.index() >= core_tiles_.size() ||
                     core_tiles_[core.index()] == 0;
  if (tile0)
    tracer_.record(kernel_.now(),
                   is_write ? TraceKind::kMemWrite : TraceKind::kMemRead, core,
                   "ILLEGAL_ACCESS", a, len);
  throw std::out_of_range(
      strformat("illegal access to unmapped address 0x%llx (%llu bytes)",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(len)));
}

void MemorySystem::observe(const Region& r, CoreId core, Addr a,
                           std::uint32_t size, bool is_write, std::uint64_t b,
                           std::uint64_t value) {
  const TimePs now = clock_of(r).now();
  tracer_of(r).record(now,
                      is_write ? TraceKind::kMemWrite : TraceKind::kMemRead,
                      core, r.name, a, b);
  if (observers_->empty()) return;
  MemAccess acc{now, core, a, size, is_write, value};
  acc.local = r.is_local() && r.owner == core;
  acc.latency = r.access_latency;
  for (Observer* o : *observers_) o->on_mem_access(acc);
}

// The 8-byte accessors take an inline path when the word lies inside one
// page (offset within the page at most kPageSize - 8): one shift, one null
// test, one 8-byte copy. A word straddling a page edge goes through the
// page loop.
std::uint64_t MemorySystem::read_u64(CoreId core, Addr a) {
  const Region& r = region_for(a, 8, core, /*is_write=*/false);
  const std::uint64_t off = a - r.base;
  std::uint64_t v = 0;
  if ((off & kPageMask) <= kPageSize - 8) {
    if (const std::uint8_t* p = r.pages[off >> kPageBits].get())
      std::memcpy(&v, p + (off & kPageMask), 8);
  } else {
    std::uint8_t buf[8];
    copy_out(r, off, buf);
    std::memcpy(&v, buf, 8);
  }
  observe(r, core, a, 8, /*is_write=*/false, v, v);
  return v;
}

void MemorySystem::write_u64(CoreId core, Addr a, std::uint64_t v) {
  Region& r = region_for(a, 8, core, /*is_write=*/true);
  const std::uint64_t off = a - r.base;
  if ((off & kPageMask) <= kPageSize - 8) {
    std::memcpy(page_for_write(r, off) + (off & kPageMask), &v, 8);
  } else {
    std::uint8_t buf[8];
    std::memcpy(buf, &v, 8);
    copy_in(r, off, buf);
  }
  observe(r, core, a, 8, /*is_write=*/true, v, v);
}

// Block accesses trace their length and observe no value.
void MemorySystem::read_block(CoreId core, Addr a,
                              std::span<std::uint8_t> out) {
  const Region& r = region_for(a, out.size(), core, /*is_write=*/false);
  copy_out(r, a - r.base, out);
  observe(r, core, a, static_cast<std::uint32_t>(out.size()),
          /*is_write=*/false, out.size(), 0);
}

void MemorySystem::write_block(CoreId core, Addr a,
                               std::span<const std::uint8_t> in) {
  Region& r = region_for(a, in.size(), core, /*is_write=*/true);
  copy_in(r, a - r.base, in);
  observe(r, core, a, static_cast<std::uint32_t>(in.size()),
          /*is_write=*/true, in.size(), 0);
}

void MemorySystem::poke(Addr a, std::span<const std::uint8_t> in) {
  const std::size_t i = lookup(a, in.size());
  if (i == kNoRegion) throw std::out_of_range("poke outside mapped memory");
  Region& r = regions_[i];
  copy_in(r, a - r.base, in);
}

void MemorySystem::peek(Addr a, std::span<std::uint8_t> out) const {
  const std::size_t i = lookup(a, out.size());
  if (i == kNoRegion) throw std::out_of_range("peek outside mapped memory");
  const Region& r = regions_[i];
  copy_out(r, a - r.base, out);
}

}  // namespace rw::sim
