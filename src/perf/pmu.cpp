#include "perf/pmu.hpp"

namespace rw::perf {

void Pmu::on_core_reserve(sim::CoreId core, Cycles cycles, TimePs start,
                          TimePs finish, HertzT /*freq*/) {
  CoreCounters& c = bucket(core);
  c.busy_cycles += cycles;
  c.busy_ps += finish - start;
  ++c.reservations;
}

void Pmu::on_compute_block(sim::CoreId core, const std::string& /*label*/,
                           Cycles /*cycles*/, TimePs /*start*/,
                           TimePs /*finish*/) {
  ++bucket(core).compute_blocks;
}

void Pmu::on_freq_change(sim::CoreId core, HertzT /*from*/, HertzT /*to*/) {
  ++bucket(core).freq_changes;
}

void Pmu::on_mem_access(const sim::MemAccess& acc) {
  CoreCounters& c = bucket(acc.core);
  if (acc.is_write) {
    ++c.mem_writes;
    c.bytes_written += acc.size;
  } else {
    ++c.mem_reads;
    c.bytes_read += acc.size;
  }
  if (acc.local) {
    ++c.local_accesses;
  } else {
    ++c.shared_accesses;
  }
  c.stall_cycles += acc.latency;
}

void Pmu::on_transfer(sim::CoreId /*src*/, sim::CoreId /*dst*/,
                      std::uint64_t bytes, DurationPs wait,
                      DurationPs duration, std::uint32_t hops) {
  ++icn_.transfers;
  icn_.bytes += bytes;
  icn_.wait_ps += wait;
  icn_.busy_ps += duration;
  icn_.hops += hops;
}

void Pmu::on_link_busy(std::size_t link, DurationPs busy) {
  if (link >= icn_.link_busy_ps.size()) icn_.link_busy_ps.resize(link + 1, 0);
  icn_.link_busy_ps[link] += busy;
}

void Pmu::on_dma(std::uint64_t bytes, TimePs start, TimePs finish) {
  ++dma_.transfers;
  dma_.bytes += bytes;
  dma_.busy_ps += finish - start;
}

PmuSnapshot Pmu::snapshot(TimePs now) const {
  PmuSnapshot s;
  s.at = now;
  s.cores = cores_;
  s.unattributed = unattributed_;
  s.icn = icn_;
  s.dma = dma_;
  return s;
}

}  // namespace rw::perf
