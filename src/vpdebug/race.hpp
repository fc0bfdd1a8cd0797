// Data-race detection on the virtual platform.
//
// Sec. VII: "race conditions on a shared memory access can be easily
// identified". The detector watches every access to watched address
// ranges and reports pairs from different cores that touch the same
// location within a time window with at least one write and with no
// common hardware semaphore held — the classic happens-before-free
// conflict on an MPSoC without coherent atomics.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/platform.hpp"

namespace rw::vpdebug {

struct RaceReport {
  TimePs first_time = 0;
  TimePs second_time = 0;
  sim::CoreId first_core{};
  sim::CoreId second_core{};
  sim::Addr addr = 0;
  bool first_is_write = false;
  bool second_is_write = false;

  [[nodiscard]] std::string to_string() const;
};

class RaceDetector final : public sim::Observer {
 public:
  /// Watch [base, base+len). `window` is the temporal vicinity within
  /// which unsynchronized conflicting accesses are reported. The detector
  /// observes the platform from construction to destruction.
  RaceDetector(sim::Platform& platform, sim::Addr base, std::uint64_t len,
               DurationPs window = microseconds(1));
  ~RaceDetector() override { platform_.detach(*this); }

  [[nodiscard]] const std::vector<RaceReport>& races() const {
    return races_;
  }
  [[nodiscard]] std::uint64_t accesses_observed() const { return seen_; }

 private:
  void on_mem_access(const sim::MemAccess& acc) override;
  [[nodiscard]] bool core_holds_lock(sim::CoreId core) const;

  sim::Platform& platform_;
  sim::Addr base_;
  std::uint64_t len_;
  DurationPs window_;
  std::uint64_t seen_ = 0;

  struct PendingAccess {
    TimePs time;
    sim::CoreId core;
    sim::Addr addr;
    std::uint32_t size;
    bool is_write;
    bool locked;  // held any hw semaphore at access time
  };
  std::deque<PendingAccess> recent_;
  std::vector<RaceReport> races_;
};

}  // namespace rw::vpdebug
