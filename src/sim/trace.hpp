// Execution tracing.
//
// Sec. VII names "hardware and software tracing capabilities" as a key
// virtual-platform debugging feature: "a history of function execution
// within the different processes, and their access to memories and
// peripherals". Every component of the platform reports events here; the
// vpdebug layer and the experiment harnesses consume them, either from the
// retained buffer or live as Observer::on_trace (observer.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/observer.hpp"

namespace rw::sim {

/// Append-only trace buffer of one tile. Every record also goes to the
/// attached observers that consume trace, with this tracer's tile index,
/// as a TraceRecord that borrows the caller's label; the owning
/// TraceEvent is built only when the tracer retains records.
///
/// Off path: a tracer that is disabled and has no trace-consuming
/// observer is inactive, and record() returns before it builds anything,
/// so an unobserved run pays one branch per trace point. Callers whose
/// only work is tracing test active() themselves (Core skips its
/// ComputeStart event).
class Tracer {
 public:
  /// `observers` is the platform's list, `tile` the tile this tracer
  /// records for.
  explicit Tracer(const ObserverList& observers = kNoObservers,
                  std::uint32_t tile = 0)
      : observers_(&observers), tile_(tile) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// True when a record would be kept or seen by an observer.
  [[nodiscard]] bool active() const {
    return enabled_ || observers_->tracing();
  }
  /// The observer list this tracer reports to; components built on the
  /// tracer (memory, cores, peripherals) report to the same list.
  [[nodiscard]] const ObserverList& observers() const { return *observers_; }

  /// Observers see every record, even when buffer retention is disabled.
  /// The active() test stays inline and the record is dispatched out of
  /// line (record_active), so an inactive tracer costs its callers one
  /// branch rather than a call with eight arguments.
  void record(TimePs time, TraceKind kind, CoreId core,
              std::string_view label, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if (active()) record_active(time, kind, core, label, a, b);
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

  /// Events matching a predicate (convenience for tests and reports).
  [[nodiscard]] std::vector<TraceEvent> filter(TraceKind kind) const {
    std::vector<TraceEvent> out;
    for (const auto& e : events_)
      if (e.kind == kind) out.push_back(e);
    return out;
  }

 private:
  void record_active(TimePs time, TraceKind kind, CoreId core,
                     std::string_view label, std::uint64_t a,
                     std::uint64_t b);

  const ObserverList* observers_;
  std::uint32_t tile_;
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

/// pair_records' mark for a record without a partner.
inline constexpr std::size_t kNoPartner = ~std::size_t{0};

/// The one pairing rule for trace spans: the index of each record's
/// partner, or kNoPartner. A span is an opening record (kTaskStart,
/// kComputeStart, kMsgSend, kDmaStart) and the closing record paired with
/// it; every trace reader (perf::TraceView, the Chrome exporter, the
/// profiler's attribution check, vpdebug's history, Gantt and VCD) decodes
/// through this function. Rules, per encoding:
///   * kTaskStart/kTaskEnd — keyed on the task index `a`; a newer start of
///     the same task replaces the older one. Emitted by
///     maps::execute_on_platform_traced (start.b = executed cycles, end.b =
///     reference cycles).
///   * kComputeStart/kComputeEnd — one open block per core (a core runs one
///     block at a time); a newer start replaces a block that a crash
///     abandoned, and an end closes the open block only when its label
///     matches. Records with an invalid core never pair. start.a = cycles.
///   * kMsgSend/kMsgRecv — FIFO per packed key a = (src_task<<32)|dst_task,
///     since one edge may transfer more than once; b = bytes.
///   * kDmaStart/kDmaEnd — FIFO: the engine serializes its copies; b =
///     length in bytes.
/// A start replaced before its end, an end with no open start (say, of a
/// block already in flight when tracing was switched on) and a span still
/// open when the trace ends all stay unpaired. Other kinds never pair.
std::vector<std::size_t> pair_records(const std::vector<TraceEvent>& events);

}  // namespace rw::sim
