#include "fault/injector.hpp"

#include <algorithm>
#include <span>

#include "common/json.hpp"

namespace rw::fault {

void FaultTimeline::record(TimePs time, std::string what,
                           std::uint32_t target, std::uint64_t a,
                           std::uint64_t b, std::string note) {
  records_.push_back(
      FaultRecord{time, std::move(what), target, a, b, std::move(note)});
}

void FaultTimeline::write_json(json::Writer& w) const {
  w.begin_array();
  for (const FaultRecord& r : records_) {
    w.begin_object();
    w.key("time_ps").value(r.time);
    w.key("what").value(r.what);
    w.key("target").value(static_cast<std::uint64_t>(r.target));
    w.key("a").value(r.a);
    w.key("b").value(r.b);
    if (!r.note.empty()) w.key("note").value(r.note);
    w.end_object();
  }
  w.end_array();
}

std::size_t degradable_links(const sim::PlatformConfig& cfg) {
  return cfg.interconnect == sim::PlatformConfig::Icn::kMesh
             ? sim::link_count(cfg)
             : 0;
}

FaultInjector::FaultInjector(sim::Platform& platform, FaultPlan plan)
    : platform_(platform), events_(plan.events()) {
  if (platform_.tile_count() > 1)
    tile_streams_.resize(platform_.tile_count() - 1);
}

FaultTimeline FaultInjector::merged_timeline() const {
  FaultTimeline merged = timeline_;
  if (tile_streams_.empty()) return merged;
  std::vector<FaultRecord> all = merged.records();
  for (const FaultTimeline& tl : tile_streams_)
    all.insert(all.end(), tl.records().begin(), tl.records().end());
  std::stable_sort(all.begin(), all.end(),
                   [](const FaultRecord& a, const FaultRecord& b) {
                     return a.time < b.time;
                   });
  FaultTimeline out;
  for (FaultRecord& r : all)
    out.record(r.time, std::move(r.what), r.target, r.a, r.b,
               std::move(r.note));
  return out;
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    // Route the fault to the tile that owns its target state.
    std::uint32_t tile = 0;
    switch (e.kind) {
      case FaultKind::kCoreCrash:
      case FaultKind::kCoreStall:
        tile = platform_.tile_of_core(e.target % platform_.core_count());
        break;
      case FaultKind::kMemBitFlip:
        if (const sim::Region* r = platform_.memory().find_region(e.a))
          tile = r->tile;
        break;
      default:
        break;  // fabric / DMA / IRQ state lives on tile 0
    }
    auto& kernel = platform_.tile_kernel(tile);
    const TimePs when = std::max(e.time, kernel.now());
    kernel.schedule_daemon_at(when, [this, i, tile] { apply(i, tile); });
  }
}

void FaultInjector::apply(std::size_t i, std::uint32_t tile) {
  const FaultEvent& e = events_[i];
  auto& plat = platform_;
  const TimePs now = plat.tile_kernel(tile).now();
  applied_.fetch_add(1, std::memory_order_relaxed);
  std::string note;

  switch (e.kind) {
    case FaultKind::kCoreCrash: {
      auto& core = plat.core(e.target % plat.core_count());
      if (core.failed()) {
        note = "already_failed";
      } else {
        core.fail();
      }
      break;
    }
    case FaultKind::kCoreStall:
      plat.core(e.target % plat.core_count()).stall(e.a);
      break;
    case FaultKind::kLinkDegrade: {
      const double factor = static_cast<double>(e.a) / 1000.0;
      const std::size_t links = degradable_links(plat.config());
      if (e.target != kFabricWide && links > 0) {
        plat.interconnect().set_link_degrade(e.target % links, factor);
      } else {
        plat.interconnect().set_degrade(factor);
        if (e.target != kFabricWide) note = "fabric_wide_fallback";
      }
      break;
    }
    case FaultKind::kPacketDrop:
      plat.interconnect().inject_drops(e.a);
      break;
    case FaultKind::kMemBitFlip: {
      // Raw backdoor flip: unobserved by the latency model, visible to
      // every subsequent read — silent corruption, as in the real thing.
      std::uint8_t byte = 0;
      if (plat.memory().find_region(e.a) == nullptr) {
        note = "unmapped";
        break;
      }
      plat.memory().peek(e.a, std::span<std::uint8_t>(&byte, 1));
      byte = static_cast<std::uint8_t>(byte ^ (1U << (e.b % 8)));
      plat.memory().poke(e.a, std::span<const std::uint8_t>(&byte, 1));
      plat.tile_tracer(tile).record(now, sim::TraceKind::kCustom,
                                    sim::CoreId{}, "fault.bitflip", e.a, e.b);
      break;
    }
    case FaultKind::kDmaAbort:
      if (!plat.dma().abort()) note = "idle";
      break;
    case FaultKind::kIrqDrop:
      plat.irqc().inject_drops(
          e.target % sim::InterruptController::kNumLines, e.a);
      break;
    case FaultKind::kIrqSpurious:
      plat.irqc().raise(e.target % sim::InterruptController::kNumLines);
      break;
  }
  stream_for(tile).record(now, fault_kind_name(e.kind), e.target, e.a, e.b,
                          std::move(note));
}

}  // namespace rw::fault
