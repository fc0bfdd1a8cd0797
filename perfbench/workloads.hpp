// The benchmark's workloads: a corpus of units built from the seed, each
// unit run from the outside through the layers' public functions.
//
// A unit is one op on the simulation workloads (one simulation, or one
// replay of the critpath corpus) and one fuzz campaign (one op per fuzz
// case) on fuzz_batch. Every unit returns a digest of the outputs the
// benchmark checks and the exact work counters of that unit; bench.cpp
// compares both against the unit's first run (or its pin) on every later
// run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Exact work counters, keyed by metric name. Ordered, so the printed
/// form repeats byte for byte.
using Counts = std::map<std::string, std::uint64_t>;

/// FNV-1a fold of every checked output.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

struct UnitResult {
  std::uint64_t digest = 0;
  Counts counts;
  std::uint64_t ops = 1;
  /// Ops the program's own checks flagged (fuzz oracle violations).
  std::uint64_t failed = 0;
  /// Per-op host times measured inside the unit (fuzz cases); empty for
  /// simulations, which the closed loop times around the whole unit.
  std::vector<double> op_ms;
  /// Simulated microseconds of the unit; units that time themselves
  /// also give the host seconds that produced them.
  double sim_us = 0.0;
  double sim_host_s = 0.0;
  /// Per-layer samples (medians) and sums (ratios) for the span run.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> sums;
  /// Host time of the unit's untimed comparison runs, which the closed
  /// loop takes out of the op time.
  double excluded_ms = 0.0;
  /// First broken invariant, empty when every check held.
  std::string problem;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the corpus for `seed`; nullptr for an unknown name. `tiny`
  /// shrinks every size for the self-check.
  static std::unique_ptr<Workload> make(std::string_view name,
                                        std::uint64_t seed, bool tiny);

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual const std::string& entry_name(std::size_t i) const = 0;

  /// Run corpus entry `i`. With `spans.enabled` the unit also records its
  /// layer spans and runs the untimed comparison runs behind the per-layer
  /// readouts (their results land in `UnitResult::samples`).
  virtual UnitResult run(std::size_t i, Spans& spans) = 0;

  /// Work the span run does once per entry after its first run there,
  /// outside op timing (the fuzz layer probe); adds its exact counts to
  /// `counts`.
  virtual void probe(std::size_t /*i*/, Spans& /*spans*/, Counts& /*counts*/) {}

  /// The untimed warm-up op of set-up: one op with recording off.
  virtual void warm_up() {
    Spans off;
    (void)run(0, off);
  }

  /// Whether ops are timed inside the unit (fuzz) or around it.
  [[nodiscard]] virtual bool self_timed() const { return false; }
};

}  // namespace perfbench
