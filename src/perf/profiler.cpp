#include "perf/profiler.hpp"

#include <algorithm>
#include <map>

namespace rw::perf {
namespace {

/// Tick event priority. Positive = after model events at the same
/// instant, so a block ending exactly on a tick is seen as finished —
/// the deterministic analogue of real sampling skew.
constexpr int kTickPriority = 100;

}  // namespace

SamplingProfiler::SamplingProfiler(sim::Platform& platform, ProfilerConfig cfg)
    : platform_(platform),
      cfg_(cfg),
      per_core_(platform.core_count()),
      idle_per_core_(platform.core_count(), 0) {
  if (cfg_.period == 0) cfg_.period = microseconds(10);
}

void SamplingProfiler::start() {
  if (started_) return;
  started_ = true;
  for (std::uint32_t t = 0; t < platform_.tile_count(); ++t) {
    platform_.tile_kernel(t).schedule_daemon_in(
        cfg_.period, [this, t] { tick(t); }, kTickPriority);
  }
}

void SamplingProfiler::tick(std::uint32_t tile) {
  auto& kernel = platform_.tile_kernel(tile);
  const TimePs now = kernel.now();
  if (tile == 0) ++ticks_;
  for (std::size_t i = 0; i < platform_.core_count(); ++i) {
    // Each daemon samples only its own tile's cores: a cell is written by
    // exactly one tile, and core state is read on the core's home kernel.
    if (platform_.tile_of_core(i) != tile) continue;
    sim::Core& core = platform_.core(i);
    if (core.idle_at(now)) {
      ++idle_per_core_[i];
    } else {
      // Busy but between labelled blocks means raw reserve() work (e.g. a
      // scheduler dispatch cost); bucket it so shares still sum to one.
      const std::string& lbl = core.current_label();
      const std::string& name = lbl == kIdleLabel ? kReservedLabel : lbl;
      auto& cells = per_core_[i];
      auto it = std::find_if(cells.begin(), cells.end(),
                             [&](const Cell& c) { return c.label == name; });
      if (it == cells.end()) {
        cells.push_back(Cell{name, 1});
      } else {
        ++it->count;
      }
    }
    if (cfg_.cost_cycles > 0) core.reserve(cfg_.cost_cycles);
  }
  // Daemon rescheduling: the kernel drops pending daemons once the model
  // drains, so the sampler never prevents kernel.run() from returning.
  kernel.schedule_daemon_in(cfg_.period, [this, tile] { tick(tile); },
                            kTickPriority);
}

SamplingProfiler::Profile SamplingProfiler::profile() const {
  Profile p;
  p.total_samples = ticks_ * per_core_.size();
  for (std::size_t i = 0; i < per_core_.size(); ++i) {
    p.idle_samples += idle_per_core_[i];
    for (const auto& cell : per_core_[i]) {
      p.entries.push_back(Entry{i, cell.label, cell.count});
      p.busy_samples += cell.count;
    }
  }
  std::sort(p.entries.begin(), p.entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.core != b.core) return a.core < b.core;
              return a.label < b.label;
            });
  return p;
}

double attribution_accuracy(const SamplingProfiler::Profile& profile,
                            const std::vector<sim::TraceEvent>& trace,
                            std::size_t num_cores) {
  // Exact busy time per (core,label), from the paired compute blocks.
  std::map<std::pair<std::size_t, std::string>, double> exact;
  double exact_total = 0.0;
  const std::vector<std::size_t> partner = sim::pair_records(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const sim::TraceEvent& ev = trace[i];
    if (ev.kind != sim::TraceKind::kComputeEnd ||
        partner[i] == sim::kNoPartner || ev.core.index() >= num_cores)
      continue;
    const double dur = static_cast<double>(ev.time - trace[partner[i]].time);
    exact[{ev.core.index(), ev.label}] += dur;
    exact_total += dur;
  }

  if (profile.busy_samples == 0 || exact_total == 0.0)
    return profile.busy_samples == 0 && exact_total == 0.0 ? 1.0 : 0.0;

  double overlap = 0.0;
  for (const auto& e : profile.entries) {
    const double sampled_share = static_cast<double>(e.samples) /
                                 static_cast<double>(profile.busy_samples);
    auto it = exact.find({e.core, e.label});
    if (it == exact.end()) continue;
    const double exact_share = it->second / exact_total;
    overlap += std::min(sampled_share, exact_share);
  }
  return overlap;
}

}  // namespace rw::perf
