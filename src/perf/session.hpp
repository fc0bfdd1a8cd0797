// PerfSession: one-object attach/measure/report lifecycle.
//
// RAII over the whole observation stack: constructing a session builds the
// PMU, attaches it to the platform, and (optionally) arms the sampling
// profiler and epoch collector; destroying it detaches the PMU, so the
// platform reverts to the unobserved, bit-identical baseline. Other
// observers attached to the same platform are left alone.
// After kernel.run(), report() freezes everything into a PerfReport that
// the exporters and RunMetrics integration consume.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/run_metrics.hpp"
#include "common/units.hpp"
#include "perf/metrics.hpp"
#include "perf/pmu.hpp"
#include "perf/profiler.hpp"
#include "sim/platform.hpp"

namespace rw::perf {

struct PerfConfig {
  bool profile = true;
  ProfilerConfig profiler;
  bool collect_epochs = true;
  DurationPs epoch_width = microseconds(50);
};

/// Frozen measurement results for one run.
struct PerfReport {
  TimePs makespan = 0;
  std::size_t num_cores = 0;
  PmuSnapshot pmu;
  SamplingProfiler::Profile profile;
  std::uint64_t profiler_ticks = 0;
  DurationPs profiler_period = 0;
  std::vector<Epoch> epochs;

  /// Aggregates over all core counter blocks (incl. unattributed).
  [[nodiscard]] CoreCounters totals() const;
  [[nodiscard]] double mean_utilization() const;

  /// Fold the headline counters into RunMetrics::extra under
  /// `prefix` (default "pmu."), so harness JSON carries them.
  void to_extras(RunMetrics& m, const std::string& prefix = "pmu.") const;
};

class PerfSession {
 public:
  PerfSession(sim::Platform& platform, PerfConfig cfg = {});
  ~PerfSession();
  PerfSession(const PerfSession&) = delete;
  PerfSession& operator=(const PerfSession&) = delete;

  [[nodiscard]] Pmu& pmu() { return pmu_; }
  [[nodiscard]] const Pmu& pmu() const { return pmu_; }
  [[nodiscard]] SamplingProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] EpochCollector* epochs() { return epochs_.get(); }

  /// Detach the PMU early (before destruction); idempotent.
  void detach() { platform_.detach(pmu_); }

  /// Close trailing windows and freeze the report. Call after the
  /// simulation has run.
  [[nodiscard]] PerfReport report();

 private:
  sim::Platform& platform_;
  PerfConfig cfg_;
  Pmu pmu_;
  std::unique_ptr<SamplingProfiler> profiler_;
  std::unique_ptr<EpochCollector> epochs_;
};

}  // namespace rw::perf
