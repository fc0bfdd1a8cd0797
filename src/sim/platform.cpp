#include "sim/platform.hpp"

#include <charconv>
#include <stdexcept>

#include "common/strings.hpp"

namespace rw::sim {
namespace {

constexpr Cycles kScratchpadLatency = 1;  // cycles per scratchpad access

}  // namespace

PlatformConfig PlatformConfig::homogeneous(std::size_t n, HertzT freq) {
  PlatformConfig cfg;
  cfg.cores.assign(n, CoreCfg{PeClass::kRisc, freq, 64 * 1024});
  return cfg;
}

PlatformConfig PlatformConfig::heterogeneous(std::size_t riscs,
                                             std::size_t dsps) {
  PlatformConfig cfg;
  for (std::size_t i = 0; i < riscs; ++i)
    cfg.cores.push_back(CoreCfg{PeClass::kRisc, mhz(400), 64 * 1024});
  for (std::size_t i = 0; i < dsps; ++i)
    cfg.cores.push_back(CoreCfg{PeClass::kDsp, mhz(300), 128 * 1024});
  return cfg;
}

Status PlatformConfig::validate() const {
  if (shared_mem_bytes > kMaxSharedMemBytes)
    return make_error(strformat(
        "shared memory of %llu bytes exceeds the %llu-byte limit (the region "
        "at 0x80000000 must end at or below 2^32)",
        static_cast<unsigned long long>(shared_mem_bytes),
        static_cast<unsigned long long>(kMaxSharedMemBytes)));
  RW_TRY_STATUS(validate_fabric(*this));
  return validate_tiling(*this);
}

void PlatformConfig::use_square_mesh() {
  interconnect = Icn::kMesh;
  std::uint32_t w = 1;
  while (static_cast<std::size_t>(w) * w < cores.size()) ++w;
  mesh.width = w;
  mesh.height = static_cast<std::uint32_t>((cores.size() + w - 1) / w);
}

Platform::Platform(PlatformConfig cfg)
    : cfg_(std::move(cfg)),
      kernel_(cfg_.kernel),
      tracer_(observers_, 0),
      memory_(kernel_, tracer_) {
  if (cfg_.cores.empty())
    throw std::invalid_argument("platform needs at least one core");
  if (const Status st = cfg_.validate(); !st.ok())
    throw std::invalid_argument(st.error().message);

  tracer_.set_enabled(cfg_.trace_enabled);

  const std::uint32_t tiles = cfg_.kernel.num_tiles;
  for (std::uint32_t t = 1; t < tiles; ++t) {
    // Every tile runs the same KernelConfig — the queue-policy identity
    // contract holds per tile exactly as it does for the whole platform.
    extra_kernels_.push_back(std::make_unique<Kernel>(cfg_.kernel));
    extra_tracers_.push_back(std::make_unique<Tracer>(observers_, t));
    extra_tracers_.back()->set_enabled(cfg_.trace_enabled);
  }

  cores_.reserve(cfg_.cores.size());
  for (std::size_t i = 0; i < cfg_.cores.size(); ++i) {
    const auto& cc = cfg_.cores[i];
    const CoreId id{static_cast<std::uint32_t>(i)};
    cores_.push_back(std::make_unique<Core>(tile_kernel(cc.tile),
                                            tile_tracer(cc.tile), id, cc.cls,
                                            cc.frequency));
    if (cc.scratchpad_bytes > 0) {
      if (cc.scratchpad_bytes > kScratchpadStride)
        throw std::invalid_argument("scratchpad exceeds memory-map stride");
      // "spm<i>" fits the string's inline buffer; built without printf.
      char name[24] = "spm";
      char* end = std::to_chars(name + 3, name + sizeof name, i).ptr;
      const RegionId rid = memory_.add_region(
          std::string(name, static_cast<std::size_t>(end - name)), scratchpad_base(id), cc.scratchpad_bytes,
          kScratchpadLatency, id);
      if (cc.tile != 0)
        memory_.set_region_context(rid, cc.tile, &tile_kernel(cc.tile),
                                   &tile_tracer(cc.tile));
    }
  }

  if (cfg_.shared_mem_bytes > 0) {
    // The shared region stays on tile 0; the cross-tile guard makes it
    // reachable only from tile-0 cores on a tiled platform.
    memory_.add_region("shared", kSharedBase, cfg_.shared_mem_bytes,
                       cfg_.shared_mem_latency);
  }
  memory_.set_enforce_locality(cfg_.enforce_locality);
  if (tiles > 1) {
    std::vector<std::uint32_t> core_tiles;
    core_tiles.reserve(cfg_.cores.size());
    for (const auto& cc : cfg_.cores) core_tiles.push_back(cc.tile);
    memory_.set_core_tiles(std::move(core_tiles));
  }

  icn_.emplace(kernel_, cfg_, observers_);

  irqc_ = std::make_unique<InterruptController>(kernel_, tracer_);
  timer_ = std::make_unique<TimerPeripheral>(kernel_, tracer_, *irqc_,
                                             kIrqTimer);
  dma_ = std::make_unique<DmaEngine>(kernel_, tracer_, memory_, &*icn_,
                                     *irqc_, kIrqDma);
  hwsem_ = std::make_unique<HwSemaphores>(kernel_, tracer_);

  if (tiles > 1) {
    std::vector<Kernel*> tile_kernels;
    tile_kernels.reserve(tiles);
    for (std::uint32_t t = 0; t < tiles; ++t)
      tile_kernels.push_back(&tile_kernel(t));
    engine_ = std::make_unique<TiledEngine>(
        std::move(tile_kernels), min_cross_tile_latency(cfg_),
        TiledEngine::Options{cfg_.kernel.exec, /*force_threads=*/false});
  }
}

void Platform::run(std::uint64_t max_events) {
  if (engine_) {
    engine_->run(max_events);
  } else {
    kernel_.run(max_events);
  }
}

TimePs Platform::now() const {
  return engine_ ? engine_->now() : kernel_.now();
}

std::vector<Peripheral*> Platform::peripherals() {
  return {irqc_.get(), timer_.get(), dma_.get(), hwsem_.get()};
}

}  // namespace rw::sim
