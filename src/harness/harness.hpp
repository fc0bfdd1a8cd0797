// Unified experiment harness: Scenario + Runner.
//
// Every qualitative claim in the paper is reproduced by running N
// independent deterministic simulations and tabulating per-run metrics.
// Before this module each bench binary hand-rolled that loop and rw::cic
// DSE evaluated candidates strictly serially. A Scenario names the
// experiment and enumerates its runs (label + closure); a Runner fans the
// runs out over a std::jthread pool and collects RunMetrics.
//
// Determinism contract (the property everything downstream leans on):
//   * each run's seed is derived from (base_seed, scenario, label, index)
//     only — never from thread identity or timing;
//   * runs share no mutable state (each rw::sim::Kernel is single-threaded
//     by design, so independent simulations parallelize trivially);
//   * results are collected into submission-order slots.
// Therefore Runner output is byte-identical for any thread count, wall_ns
// aside, and tests/test_harness.cpp holds the API to that.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/run_metrics.hpp"

namespace rw::harness {

/// Everything a run may condition on. Runs needing randomness must draw it
/// from rng() (seeded deterministically), never from global sources.
struct RunContext {
  std::size_t index = 0;   // position within the scenario
  std::uint64_t seed = 0;  // derived per-run seed

  [[nodiscard]] Rng rng() const { return Rng(seed); }
};

using RunFn = std::function<RunMetrics(const RunContext&)>;

/// A named experiment: an ordered list of labelled runs.
class Scenario {
 public:
  static constexpr std::uint64_t kDefaultBaseSeed = 0x726f6164776f726bULL;

  explicit Scenario(std::string name,
                    std::uint64_t base_seed = kDefaultBaseSeed)
      : name_(std::move(name)), base_seed_(base_seed) {}

  /// Append a run. Returns *this for chaining.
  Scenario& add_run(std::string label, RunFn fn);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }
  [[nodiscard]] const std::string& label(std::size_t i) const {
    return runs_[i].label;
  }

  /// The seed run `i` will receive: pure function of the scenario identity,
  /// never of execution order or thread count.
  [[nodiscard]] std::uint64_t seed_for(std::size_t index) const;

  /// Seed derivation, exposed for the collision test: splitmix64-finalized
  /// FNV-1a over (base_seed, scenario, label, index).
  static std::uint64_t derive_seed(std::uint64_t base_seed,
                                   std::string_view scenario,
                                   std::string_view label, std::size_t index);

 private:
  friend class Runner;
  struct Entry {
    std::string label;
    RunFn fn;
  };
  std::string name_;
  std::uint64_t base_seed_;
  std::vector<Entry> runs_;
};

/// One completed run. `ok` is false when the run threw; the simulation
/// metrics are then default-valued and `error` holds the message.
struct RunRecord {
  std::string label;
  std::size_t index = 0;
  std::uint64_t seed = 0;
  RunMetrics metrics;
  bool ok = true;
  std::string error;
};

/// All runs of a scenario, in submission order regardless of the
/// interleaving the pool happened to execute.
struct ScenarioResult {
  std::string scenario;
  std::size_t threads_used = 1;
  std::uint64_t wall_ns = 0;  // whole-scenario wall clock

  std::vector<RunRecord> runs;

  /// The record with the given label (first match), or nullptr.
  [[nodiscard]] const RunRecord* find(std::string_view label) const;
};

struct RunnerConfig {
  /// Worker threads; 0 means std::thread::hardware_concurrency(). The pool
  /// never exceeds the number of runs.
  std::size_t threads = 0;
};

/// Executes scenarios over a jthread pool fed by a shared atomic cursor (a
/// work-stealing-free task queue: runs are claimed in index order, results
/// land in index-addressed slots).
class Runner {
 public:
  explicit Runner(RunnerConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] ScenarioResult run(const Scenario& s) const;

  /// The thread count a run() call will use for `runs` tasks.
  [[nodiscard]] std::size_t effective_threads(std::size_t runs) const;

 private:
  RunnerConfig cfg_;
};

/// Serialize results as a JSON document (schema: {generator, scenarios:
/// [{name, threads, wall_ns, runs: [{label, index, seed, ok, metrics}]}]}).
[[nodiscard]] std::string to_json(const std::vector<ScenarioResult>& results);

/// Write to_json() to `path` (the BENCH_*.json files the benches emit).
Status write_json(const std::string& path,
                  const std::vector<ScenarioResult>& results);

}  // namespace rw::harness
