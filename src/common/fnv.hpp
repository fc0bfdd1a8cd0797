// 64-bit FNV-1a, the one fold behind every deterministic digest in the
// repo: harness seed derivation, ert tenant fingerprints and the
// execution recorder's per-record fold.
//
// Header-only and inline: the recorder folds every trace record, so the
// call must cost no more than the loop it replaces.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rw::fnv {

inline constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kPrime = 0x100000001b3ULL;

/// The seed the execution recorder's digests (and the export digests
/// pinned in tests and bench_e13) start from: kOffset's decimal spelling,
/// 14695981039346656037, with its last digit lost. Every recorded
/// fingerprint depends on it, so it stays.
inline constexpr std::uint64_t kRecorderSeed = 1469598103934665603ULL;

/// One FNV-1a step per byte of `s`, folded into `h`.
[[nodiscard]] inline std::uint64_t fold(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kPrime;
  }
  return h;
}

namespace detail {
// kPrimePow[k] = kPrime^k (mod 2^64).
inline constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kPrime;
  return p;
}();
}  // namespace detail

/// One FNV-1a step per little-endian byte of `v` (all eight), folded into
/// `h`. A zero byte only multiplies (h ^= 0), so the high zero bytes of `v`
/// fold into one multiply by the matching power of the prime; the result
/// is bit-identical to the byte-wise loop.
[[nodiscard]] inline std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  const int n = (std::bit_width(v) + 7) / 8;
  for (int i = 0; i < n; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kPrime;
  }
  return h * detail::kPrimePow[static_cast<std::size_t>(8 - n)];
}

}  // namespace rw::fnv
