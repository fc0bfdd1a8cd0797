#include "vpdebug/replay.hpp"

namespace rw::vpdebug {

ExecutionRecorder::ExecutionRecorder(sim::Platform& platform)
    : Observer(kConsumesTrace),
      platform_(platform),
      slots_(platform.tile_count()) {
  platform_.attach(*this);
}

std::uint64_t ExecutionRecorder::fingerprint() const {
  // One tile: exactly the historical single-stream digest.
  if (slots_.size() == 1) return slots_[0].hash;
  // Many tiles: combine (tile, digest, count) in tile order. Counts are
  // folded so a tile swallowing another's events cannot cancel out.
  std::uint64_t h = fnv::kRecorderSeed;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    h = fnv::fold_u64(h, t);
    h = fnv::fold_u64(h, slots_[t].hash);
    h = fnv::fold_u64(h, slots_[t].count);
  }
  return h;
}

std::uint64_t ExecutionRecorder::events() const {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.count;
  return n;
}

void ExecutionRecorder::on_trace(std::uint32_t tile,
                                 const sim::TraceRecord& ev) {
  Slot& s = slots_[tile];
  ++s.count;
  s.hash = fnv::fold_u64(s.hash, ev.time);
  s.hash = fnv::fold_u64(s.hash, static_cast<std::uint64_t>(ev.kind));
  s.hash =
      fnv::fold_u64(s.hash, ev.core.is_valid() ? ev.core.value() : ~0ULL);
  s.hash = fnv::fold(s.hash, ev.label);
  s.hash = fnv::fold_u64(s.hash, ev.a);
  s.hash = fnv::fold_u64(s.hash, ev.b);
}

}  // namespace rw::vpdebug
