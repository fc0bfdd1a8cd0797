#include "sim/core.hpp"

#include <algorithm>
#include <atomic>

namespace rw::sim {

namespace {
// Armed state for the compiled-in seeded defect. Atomic so a campaign
// running scenario fan-out on harness threads can read it racelessly;
// it is only ever written between runs.
std::atomic<bool> g_seeded_defect{false};
}  // namespace

bool seeded_defect_compiled() {
#ifdef RW_SEEDED_DEFECT
  return true;
#else
  return false;
#endif
}

void set_seeded_defect(bool on) {
  g_seeded_defect.store(on, std::memory_order_relaxed);
}

bool seeded_defect_enabled() {
  return seeded_defect_compiled() &&
         g_seeded_defect.load(std::memory_order_relaxed);
}

const char* pe_class_name(PeClass c) {
  switch (c) {
    case PeClass::kRisc: return "RISC";
    case PeClass::kDsp: return "DSP";
    case PeClass::kVliw: return "VLIW";
    case PeClass::kAsip: return "ASIP";
    case PeClass::kAccel: return "ACCEL";
  }
  return "?";
}

void Core::set_frequency(HertzT f) {
  if (f == freq_) return;
  tracer_.record(kernel_.now(), TraceKind::kFreqChange, id_, "dvfs", f,
                 freq_);
  for (Observer* o : *observers_) o->on_freq_change(id_, freq_, f);
  freq_ = f;
}

std::pair<TimePs, TimePs> Core::reserve(Cycles cycles) {
  return reserve_from(kernel_.now(), cycles);
}

std::pair<TimePs, TimePs> Core::reserve_from(TimePs earliest, Cycles cycles) {
  const TimePs start = std::max({earliest, kernel_.now(), busy_until_});
  const DurationPs dur = cycles_to_ps(cycles, freq_);
  const TimePs finish = start + dur;
  busy_until_ = finish;
  cycles_executed_ += cycles;
  busy_time_ += dur;
  for (Observer* o : *observers_)
    o->on_core_reserve(id_, cycles, start, finish, freq_);
  return {start, finish};
}

const std::string& Core::current_label() const {
  static const std::string kCrashed = "<crashed>";
  static const std::string kIdle = "<idle>";
  if (failed_) return kCrashed;
  // active_ is in issue order and a core runs its blocks FIFO, so the
  // first started block is the one executing (or, at the instant it ends,
  // the one whose end event has not run yet).
  const TimePs now = kernel_.now();
  for (const ComputeAwaitable* aw : active_)
    if (aw->start <= now) return aw->label;
  return kIdle;
}

void Core::ComputeAwaitable::await_suspend(std::coroutine_handle<> h) {
  handle = h;
  core->start_compute(this);
}

void Core::start_compute(ComputeAwaitable* aw) {
  aw->core = this;
  if (failed_) {
    parked_.push_back(aw);
    return;
  }
  auto [start, end] = reserve(aw->cycles);
  aw->start = start;
  aw->finish = end;
  aw->issue = make_issue_tag();
  const std::uint64_t issue = aw->issue;
  active_.push_back(aw);
  // Record trace events at their proper timestamps (via kernel events) so
  // the trace stays chronological even when several cores overlap. Both
  // events go stale when the core crashes before they run: fail() moves
  // the awaitable from active_ to parked_, and a later recover()/
  // migrate_parked() re-issues the whole block under a fresh globally
  // unique tag. Each event captures the core that issued it (`self`) and
  // validates via is_active(): membership in self->active_ is a
  // pointer-only scan, so a stale event whose awaitable migrated away —
  // and whose coroutine frame may have completed and been freed on the
  // survivor — never dereferences `aw`; tags are globally unique, so a
  // stale tag can never coincide with a re-issue on another core.
  // Without the tag, a same-core re-issue landing back in active_ before
  // the original end event's timestamp would revalidate the stale event
  // and the block would complete twice, resuming a finished coroutine.
  Core* self = this;
  // The start event only writes a trace record (see the declaration).
  if (tracer_.active())
    kernel_.schedule_at(start, [self, aw, issue] {
      if (!self->is_active(aw, issue)) return;
      self->tracer_.record(self->kernel_.now(), TraceKind::kComputeStart,
                           self->id_, aw->label, aw->cycles, 0);
    });
  kernel_.schedule_at(end, [self, aw, start, issue] {
    if (!self->is_active(aw, issue)) return;
    std::erase(self->active_, aw);
    self->tracer_.record(self->kernel_.now(), TraceKind::kComputeEnd,
                         self->id_, aw->label, aw->cycles, 0);
    for (Observer* o : *self->observers_)
      o->on_compute_block(self->id_, aw->label, aw->cycles, start,
                          self->kernel_.now());
    aw->handle.resume();
  });
}

void Core::fail() {
  if (failed_) return;
  failed_ = true;
  ++fail_count_;
  last_fail_time_ = kernel_.now();
  // In-flight work is lost: park it for a later recover()/migrate_parked().
  // Leaving active_ is what invalidates the blocks' pending start/end
  // events (see the is_active() checks in start_compute).
  for (ComputeAwaitable* aw : active_) parked_.push_back(aw);
  active_.clear();
  busy_until_ = kernel_.now();  // the flushed reservations no longer occupy
  tracer_.record(kernel_.now(), TraceKind::kCustom, id_, "fault.core_crash",
                 parked_.size(), 0);
}

void Core::recover() {
  if (!failed_) return;
  failed_ = false;
  tracer_.record(kernel_.now(), TraceKind::kCustom, id_, "fault.core_recover",
                 parked_.size(), 0);
  // Re-execute everything that was lost, in park order (deterministic).
  std::vector<ComputeAwaitable*> lost;
  lost.swap(parked_);
  for (ComputeAwaitable* aw : lost) start_compute(aw);
}

std::size_t Core::migrate_parked(Core& to) {
  const std::size_t n = parked_.size();
  if (n == 0) return 0;
  tracer_.record(kernel_.now(), TraceKind::kCustom, id_, "fault.core_remap",
                 n, to.id_.value());
  std::vector<ComputeAwaitable*> lost;
  lost.swap(parked_);
  for (ComputeAwaitable* aw : lost) to.start_compute(aw);
  return n;
}

void Core::stall(DurationPs d) {
  ++stall_count_;
  busy_until_ = std::max(busy_until_, kernel_.now()) + d;
  tracer_.record(kernel_.now(), TraceKind::kCustom, id_, "fault.core_stall",
                 d, 0);
}

}  // namespace rw::sim
