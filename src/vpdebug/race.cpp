#include "vpdebug/race.hpp"

#include "common/strings.hpp"

namespace rw::vpdebug {

std::string RaceReport::to_string() const {
  return strformat(
      "race on 0x%llx: core%u %s @%s vs core%u %s @%s",
      static_cast<unsigned long long>(addr), first_core.value(),
      first_is_write ? "W" : "R", format_time(first_time).c_str(),
      second_core.value(), second_is_write ? "W" : "R",
      format_time(second_time).c_str());
}

RaceDetector::RaceDetector(sim::Platform& platform, sim::Addr base,
                           std::uint64_t len, DurationPs window)
    : platform_(platform), base_(base), len_(len), window_(window) {
  platform_.attach(*this);
}

bool RaceDetector::core_holds_lock(sim::CoreId core) const {
  auto& sem = const_cast<sim::Platform&>(platform_).hwsem();
  for (std::size_t cell = 0; cell < 16; ++cell)
    if (sem.holder(cell) == core) return true;
  return false;
}

void RaceDetector::on_mem_access(const sim::MemAccess& acc) {
  if (acc.addr + acc.size <= base_ || acc.addr >= base_ + len_) return;
  if (!acc.core.is_valid()) return;  // DMA handled as core-anonymous
  ++seen_;

  // Age out accesses beyond the window.
  while (!recent_.empty() && recent_.front().time + window_ < acc.time)
    recent_.pop_front();

  const bool locked = core_holds_lock(acc.core);
  for (const auto& prev : recent_) {
    if (prev.core == acc.core) continue;
    const bool overlap =
        acc.addr < prev.addr + prev.size && prev.addr < acc.addr + acc.size;
    if (!overlap) continue;
    if (!prev.is_write && !acc.is_write) continue;  // read-read is fine
    if (prev.locked && locked) continue;  // both under a hw semaphore
    races_.push_back(RaceReport{prev.time, acc.time, prev.core, acc.core,
                                acc.addr, prev.is_write, acc.is_write});
  }
  recent_.push_back(PendingAccess{acc.time, acc.core, acc.addr, acc.size,
                                  acc.is_write, locked});
}

}  // namespace rw::vpdebug
