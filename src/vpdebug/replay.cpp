#include "vpdebug/replay.hpp"

#include <array>
#include <bit>

namespace rw::vpdebug {
namespace {

constexpr std::uint64_t kFnvInit = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// kPrimePow[k] = kFnvPrime^k (mod 2^64).
constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kFnvPrime;
  return p;
}();

std::uint64_t fold_str(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t fnv1a_fold_u64(std::uint64_t h, std::uint64_t v) {
  // A zero byte only multiplies (h ^= 0), so the high zero bytes of `v`
  // fold into one multiply by the matching power of the prime.
  const int n = (std::bit_width(v) + 7) / 8;
  for (int i = 0; i < n; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h * kPrimePow[static_cast<std::size_t>(8 - n)];
}

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
  std::uint64_t h = kFnvInit;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    h = fnv1a_fold_u64(h, t);
    h = fnv1a_fold_u64(h, slots_[t].hash);
    h = fnv1a_fold_u64(h, slots_[t].count);
  }
  return h;
}

std::uint64_t ExecutionRecorder::events() const {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.count;
  return n;
}

void ExecutionRecorder::on_trace(std::uint32_t tile,
                                 const sim::TraceEvent& ev) {
  Slot& s = slots_[tile];
  ++s.count;
  s.hash = fnv1a_fold_u64(s.hash, ev.time);
  s.hash = fnv1a_fold_u64(s.hash, static_cast<std::uint64_t>(ev.kind));
  s.hash =
      fnv1a_fold_u64(s.hash, ev.core.is_valid() ? ev.core.value() : ~0ULL);
  s.hash = fold_str(s.hash, ev.label);
  s.hash = fnv1a_fold_u64(s.hash, ev.a);
  s.hash = fnv1a_fold_u64(s.hash, ev.b);
}

}  // namespace rw::vpdebug
