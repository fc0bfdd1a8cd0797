// Transaction-level processor core model.
//
// Cores execute work measured in cycles; the model captures exactly the
// properties the paper's arguments depend on — per-core frequency that can
// be changed at run time ("frequency variability per core", Sec. II-A),
// a PE class for heterogeneous platforms (Sec. IV/V), serialization of
// work submitted to the same core, and architectural state a debugger can
// inspect while the system is suspended (Sec. VII).
#pragma once

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace rw::sim {

/// Processing-element class. Heterogeneous platforms mix these; the
/// homogeneous-ISA platforms of Sec. II use kRisc everywhere.
enum class PeClass : std::uint8_t { kRisc, kDsp, kVliw, kAsip, kAccel };

const char* pe_class_name(PeClass c);

// --- seeded-defect test hook (rw::fuzz selftest) ---------------------
//
// Compiling with -DRW_SEEDED_DEFECT (CMake option RW_SEEDED_DEFECT)
// builds in a switchable regression of a PR 5 review fix: is_active()
// drops its issue-tag comparison and validates pending compute events by
// active_-membership alone, so a stale end event from before a crash can
// revalidate against the re-issued block and complete it early. The fuzz
// campaign's defect selftest proves the invariant oracle finds and
// shrinks this within its seed budget. Release/tier-1 builds do not
// define the macro: the hook compiles away entirely.

/// True when the binary was compiled with the defect hook present.
bool seeded_defect_compiled();
/// Arm/disarm the defect at run time (no-op unless compiled in).
void set_seeded_defect(bool on);
/// Current arm state (always false unless compiled in and armed).
bool seeded_defect_enabled();

class Core {
 public:
  Core(Kernel& kernel, Tracer& tracer, CoreId id, PeClass cls, HertzT freq)
      : kernel_(kernel),
        tracer_(tracer),
        observers_(&tracer.observers()),
        id_(id),
        cls_(cls),
        freq_(freq),
        nominal_freq_(freq) {}

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  [[nodiscard]] CoreId id() const { return id_; }
  [[nodiscard]] PeClass pe_class() const { return cls_; }
  [[nodiscard]] HertzT frequency() const { return freq_; }
  [[nodiscard]] HertzT nominal_frequency() const { return nominal_freq_; }

  /// DVFS: change the clock. Affects work reserved after this call; work
  /// already in flight completes at the old rate (a conservative model of
  /// PLL relock). Traced as kFreqChange.
  void set_frequency(HertzT f);

  /// Reserve the core for `cycles` of work starting no earlier than now.
  /// Returns {start, finish} in simulated time; the core is busy until
  /// `finish`. Work submitted while busy queues FIFO behind it.
  std::pair<TimePs, TimePs> reserve(Cycles cycles);

  /// As reserve(), but the work starts no earlier than `earliest`.
  std::pair<TimePs, TimePs> reserve_from(TimePs earliest, Cycles cycles);

  /// Awaitable: run `cycles` of computation labelled `label` on this core.
  /// `core` is a pointer (not a reference) because a parked computation can
  /// be migrated to a surviving core after a crash — see migrate_parked().
  struct ComputeAwaitable {
    Core* core;
    Cycles cycles;
    std::string label;
    TimePs start = 0;  // reserved interval [start, finish) of this issue
    TimePs finish = 0;
    std::coroutine_handle<> handle{};
    std::uint64_t issue = 0;  // globally-unique issue tag (see start_compute)

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  [[nodiscard]] ComputeAwaitable compute(Cycles cycles,
                                         std::string label = "work") {
    return ComputeAwaitable{this, cycles, std::move(label)};
  }

  /// Fault model (rw::fault). fail() crashes the core: computation in
  /// flight is lost (its coroutine parks, never resuming on its own) and
  /// computation submitted while crashed parks immediately — exactly the
  /// silent lockup a watchdog exists to catch. recover() models a reset:
  /// parked work re-executes from scratch on this core. migrate_parked()
  /// re-executes parked work on a surviving core instead (degradation-aware
  /// remapping); the parked awaitables are retargeted, so the coroutines
  /// resume on the survivor. stall() is a transient fault: the core's
  /// availability is pushed out by `d` without losing any work. All four
  /// are deterministic and trace as kCustom events.
  void fail();
  void recover();
  std::size_t migrate_parked(Core& to);
  void stall(DurationPs d);
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t parked_count() const { return parked_.size(); }
  [[nodiscard]] std::uint64_t fail_count() const { return fail_count_; }
  [[nodiscard]] std::uint64_t stall_count() const { return stall_count_; }
  /// Time of the most recent fail() (recovery-latency bookkeeping).
  [[nodiscard]] TimePs last_fail_time() const { return last_fail_time_; }

  /// Time at which the core next becomes idle.
  [[nodiscard]] TimePs busy_until() const { return busy_until_; }
  [[nodiscard]] bool idle_at(TimePs t) const { return busy_until_ <= t; }

  /// Total cycles executed and busy time (for utilization reports).
  [[nodiscard]] Cycles cycles_executed() const { return cycles_executed_; }
  [[nodiscard]] DurationPs busy_time() const { return busy_time_; }
  [[nodiscard]] double utilization(TimePs horizon) const {
    return horizon == 0 ? 0.0
                        : static_cast<double>(busy_time_) /
                              static_cast<double>(horizon);
  }

  /// Architectural state visible to the debugger while suspended.
  static constexpr std::size_t kNumRegs = 16;
  [[nodiscard]] std::uint64_t reg(std::size_t i) const { return regs_.at(i); }
  void set_reg(std::size_t i, std::uint64_t v) { regs_.at(i) = v; }

  /// Label of the block executing now, derived from the in-flight list
  /// rather than set by an event: "<crashed>" while failed, else the label
  /// of the first in-flight block whose start <= now, else "<idle>".
  ///
  /// It matches a label set by each block's start event and reset by its
  /// end event for every reader at a time that is not a block's start, and
  /// at a block's start for readers with priority > 0 (the sampling
  /// profiler ticks at 100). Only a priority-0 event at a block's start
  /// instant can tell them apart: it may see the starting block's label
  /// where the event-set label would still read "<idle>".
  [[nodiscard]] const std::string& current_label() const;

  [[nodiscard]] Kernel& kernel() { return kernel_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }

 private:
  friend struct ComputeAwaitable;
  /// (Re)issue a compute block: reserve the core and schedule its end
  /// (trace + resume) event, or park `aw` when the core is crashed. The
  /// ComputeStart trace event exists only to write a trace record, so it
  /// is scheduled only when the tracer is active() at issue time: an
  /// unobserved block costs one kernel event, an observed one two. A
  /// tracer enabled or trace observer attached while a block is in flight
  /// therefore sees that block's ComputeEnd without a ComputeStart;
  /// TraceView and the exporters skip unmatched ends.
  void start_compute(ComputeAwaitable* aw);

  /// Globally-unique issue tag: this core's id in the high 32 bits over a
  /// per-core monotonic count. A tag captured by a scheduled event can
  /// therefore never collide with a re-issue on another core (distinct id
  /// bits) nor with a later re-issue on this core (monotonic count).
  [[nodiscard]] std::uint64_t make_issue_tag() {
    return (static_cast<std::uint64_t>(id_.value()) << 32) | ++issue_seq_;
  }

  /// Event-side validity check for a pending start/end event issued by
  /// *this* core: `aw` must still be in our active_ list (a pointer-only
  /// membership scan — safe even when `aw` is dangling) and, once known
  /// live, still carry the issue tag the event captured.
  [[nodiscard]] bool is_active(const ComputeAwaitable* aw,
                               std::uint64_t issue) const {
    const bool member =
        std::find(active_.begin(), active_.end(), aw) != active_.end();
#ifdef RW_SEEDED_DEFECT
    // Armed defect: membership alone, no tag — the exact pre-PR-5-fix
    // validation. A stale end event whose block was re-issued on this
    // core after a crash revalidates and completes the block early.
    if (seeded_defect_enabled()) return member;
#endif
    return member && aw->issue == issue;
  }

  Kernel& kernel_;
  Tracer& tracer_;
  const ObserverList* observers_;  // the tracer's list
  CoreId id_;
  PeClass cls_;
  HertzT freq_;
  HertzT nominal_freq_;
  bool failed_ = false;
  std::uint64_t issue_seq_ = 0;  // per-core count under make_issue_tag()
  std::uint64_t fail_count_ = 0;
  std::uint64_t stall_count_ = 0;
  TimePs last_fail_time_ = 0;
  std::vector<ComputeAwaitable*> active_;  // in-flight compute blocks
  std::vector<ComputeAwaitable*> parked_;  // lost to a crash, awaiting rerun
  TimePs busy_until_ = 0;
  Cycles cycles_executed_ = 0;
  DurationPs busy_time_ = 0;
  std::array<std::uint64_t, kNumRegs> regs_{};
};

}  // namespace rw::sim
