// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in roadworks (execution-time jitter, WCET
// overrun injection, workload generation) flows through this generator so
// that every experiment is reproducible from a seed — the foundation of the
// Sec. VII record/replay claims and of CI-stable tests.
#pragma once

#include <cstdint>

namespace rw {

/// xoshiro256** with splitmix64 seeding. Small, fast, and fully
/// deterministic across platforms (unlike std::default_random_engine, whose
/// distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p);

  /// Exponentially distributed value with the given mean.
  double next_exponential(double mean);

 private:
  std::uint64_t s_[4] = {};
};

}  // namespace rw
