#include "perf/session.hpp"

namespace rw::perf {

namespace {
void add(CoreCounters& t, const CoreCounters& c) {
  t.busy_cycles += c.busy_cycles;
  t.stall_cycles += c.stall_cycles;
  t.busy_ps += c.busy_ps;
  t.reservations += c.reservations;
  t.compute_blocks += c.compute_blocks;
  t.mem_reads += c.mem_reads;
  t.mem_writes += c.mem_writes;
  t.local_accesses += c.local_accesses;
  t.shared_accesses += c.shared_accesses;
  t.bytes_read += c.bytes_read;
  t.bytes_written += c.bytes_written;
  t.freq_changes += c.freq_changes;
}
}  // namespace

CoreCounters PerfReport::totals() const {
  CoreCounters t;
  for (const auto& c : pmu.cores) add(t, c);
  add(t, pmu.unattributed);
  return t;
}

double PerfReport::mean_utilization() const {
  if (num_cores == 0 || makespan == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < pmu.cores.size(); ++i)
    sum += pmu.cores[i].utilization(makespan);
  return sum / static_cast<double>(num_cores);
}

void PerfReport::to_extras(RunMetrics& m, const std::string& prefix) const {
  const CoreCounters t = totals();
  m.set_extra(prefix + "busy_cycles", static_cast<double>(t.busy_cycles));
  m.set_extra(prefix + "stall_cycles", static_cast<double>(t.stall_cycles));
  m.set_extra(prefix + "instructions",
              static_cast<double>(t.approx_instructions()));
  m.set_extra(prefix + "mem_reads", static_cast<double>(t.mem_reads));
  m.set_extra(prefix + "mem_writes", static_cast<double>(t.mem_writes));
  m.set_extra(prefix + "local_accesses",
              static_cast<double>(t.local_accesses));
  m.set_extra(prefix + "shared_accesses",
              static_cast<double>(t.shared_accesses));
  m.set_extra(prefix + "icn_transfers",
              static_cast<double>(pmu.icn.transfers));
  m.set_extra(prefix + "icn_bytes", static_cast<double>(pmu.icn.bytes));
  m.set_extra(prefix + "icn_wait_ps", static_cast<double>(pmu.icn.wait_ps));
  m.set_extra(prefix + "dma_bytes", static_cast<double>(pmu.dma.bytes));
  if (profiler_ticks > 0) {
    m.set_extra(prefix + "samples",
                static_cast<double>(profile.total_samples));
    m.set_extra(prefix + "idle_samples",
                static_cast<double>(profile.idle_samples));
  }
  m.set_extra(prefix + "epochs", static_cast<double>(epochs.size()));
}

PerfSession::PerfSession(sim::Platform& platform, PerfConfig cfg)
    : platform_(platform), cfg_(cfg), pmu_(platform.core_count()) {
  platform_.attach(pmu_);
  if (cfg_.profile) {
    profiler_ = std::make_unique<SamplingProfiler>(platform_, cfg_.profiler);
    profiler_->start();
  }
  // The epoch collector snapshots *global* PMU state from a tile-0 daemon,
  // which would read other tiles' counters mid-window under parallel
  // execution; on a tiled platform it stays off (the headline report is
  // unaffected — only the per-epoch timeline is skipped).
  if (cfg_.collect_epochs && platform_.tile_count() == 1) {
    epochs_ =
        std::make_unique<EpochCollector>(platform_, pmu_, cfg_.epoch_width);
    epochs_->start();
  }
}

PerfSession::~PerfSession() { detach(); }

PerfReport PerfSession::report() {
  PerfReport r;
  r.makespan = platform_.now();  // max tile clock on a tiled platform
  r.num_cores = platform_.core_count();
  r.pmu = pmu_.snapshot(r.makespan);
  if (profiler_) {
    r.profile = profiler_->profile();
    r.profiler_ticks = profiler_->ticks();
    r.profiler_period = profiler_->config().period;
  }
  if (epochs_) {
    epochs_->finish();
    r.epochs = epochs_->epochs();
  }
  return r;
}

}  // namespace rw::perf
