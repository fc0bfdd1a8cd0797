// The observation boundary of the virtual platform.
//
// Sec. VII's core argument for virtual platforms is *non-intrusive
// observability*: "hardware and software tracing capabilities" that real
// silicon cannot offer without perturbing the system under test.
// sim::Observer is the one interface through which anything watches a run:
// the PMU, the execution recorder, the debugger's breakpoints and
// watchpoints, the race detector and fault's compute-integrity check.
//
// A Platform owns one ObserverList. Its tracers, memory system, signals,
// cores, fabric and DMA engine hold a pointer to that list, set when they
// are built, and call every attached observer at the points a hardware PMU
// or a debugger would see:
//
//   for (Observer* o : *observers_) o->on_core_reserve(...);
//
// With nothing attached a hook site is a loop over an empty list and the
// simulation is bit-identical to one that never heard of observers
// (tests/test_perf_pmu.cpp holds replay fingerprints and RunMetrics to
// that). Observers see const facts about decisions already taken and must
// not mutate simulation state from a hook. The sim layer depends only on
// this header; the observers live in rw::perf, rw::vpdebug and rw::fault,
// which depend on sim, never the other way around.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace rw::sim {

struct CoreTag {};
using CoreId = Id<CoreTag>;

using Addr = std::uint64_t;

enum class TraceKind : std::uint8_t {
  kTaskStart,
  kTaskEnd,
  kComputeStart,
  kComputeEnd,
  kMsgSend,
  kMsgRecv,
  kMemRead,
  kMemWrite,
  kIrqRaise,
  kIrqAck,
  kDmaStart,
  kDmaEnd,
  kFreqChange,
  kSchedDispatch,
  kSchedPreempt,
  kCustom,
};

const char* trace_kind_name(TraceKind k);

/// One trace record (trace.hpp).
struct TraceEvent {
  TimePs time = 0;
  TraceKind kind = TraceKind::kCustom;
  CoreId core{};
  std::string label;    // task/function/peripheral name
  std::uint64_t a = 0;  // kind-specific (address, irq line, value, ...)
  std::uint64_t b = 0;  // kind-specific (size, old value, ...)
};

/// One trace record as observers see it: a TraceEvent whose label is
/// borrowed, valid only for the duration of the on_trace call. The tracer
/// builds the owning TraceEvent only when it retains records.
struct TraceRecord {
  TimePs time = 0;
  TraceKind kind = TraceKind::kCustom;
  CoreId core{};
  std::string_view label;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// One memory access: what the PMU counts and what watchpoints and the
/// race detector match against.
struct MemAccess {
  TimePs time = 0;
  CoreId core{};  // invalid for core-anonymous accesses (DMA block copies)
  Addr addr = 0;
  std::uint32_t size = 0;
  bool is_write = false;
  std::uint64_t value = 0;  // value written / value read (0 for blocks)
  bool local = false;       // the accessing core's own scratchpad
  Cycles latency = 0;       // the region's access latency in core cycles
};

class Signal;

/// Observation interface. Every hook has an empty default body, so an
/// observer overrides only what it watches.
class Observer {
 public:
  virtual ~Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Whether on_trace receives records. A tracer is active (builds
  /// records at all) only when it is enabled or an attached observer
  /// consumes them, so attaching a counting observer such as the PMU never
  /// turns tracing on. Each observer class fixes this at construction.
  [[nodiscard]] bool consumes_trace() const { return consumes_trace_; }

  // --- core ---
  /// Core `core` reserved `cycles` of work over [start, finish] at clock
  /// `freq`. Fires for every reservation path (compute awaitables and
  /// direct reserve_from callers such as the MAPS replayer).
  virtual void on_core_reserve(CoreId /*core*/, Cycles /*cycles*/,
                               TimePs /*start*/, TimePs /*finish*/,
                               HertzT /*freq*/) {}
  /// A labelled compute block retired (fires at the block's end event, so
  /// the timestamps are final). Start/finish bracket the whole block.
  virtual void on_compute_block(CoreId /*core*/,
                                const std::string& /*label*/,
                                Cycles /*cycles*/, TimePs /*start*/,
                                TimePs /*finish*/) {}
  /// DVFS transition on `core`.
  virtual void on_freq_change(CoreId /*core*/, HertzT /*from*/,
                              HertzT /*to*/) {}

  // --- memory ---
  /// One access through a MemorySystem accessor. poke/peek are loader
  /// back-doors and are deliberately not observed.
  virtual void on_mem_access(const MemAccess& /*acc*/) {}

  // --- interconnect ---
  /// One fabric transfer. `wait` is time spent queued behind prior traffic
  /// (the contention the paper's "centralized constructs" warning is
  /// about); `duration` is occupancy from grant to delivery; `hops` is the
  /// NoC route length (0 on a shared bus).
  virtual void on_transfer(CoreId /*src*/, CoreId /*dst*/,
                           std::uint64_t /*bytes*/, DurationPs /*wait*/,
                           DurationPs /*duration*/, std::uint32_t /*hops*/) {}
  /// One directed NoC link was occupied for `busy` ps (fires per hop; the
  /// shared bus reports itself as link 0).
  virtual void on_link_busy(std::size_t /*link*/, DurationPs /*busy*/) {}

  // --- DMA ---
  /// One DMA block copy completed its reservation over [start, finish].
  virtual void on_dma(std::uint64_t /*bytes*/, TimePs /*start*/,
                      TimePs /*finish*/) {}

  // --- trace and signals ---
  /// One trace record of tile `tile`'s tracer, whether or not the tracer
  /// retains it. Only observers that consume trace receive it; an observer
  /// that keeps the label copies it. Each tile's records are ordered by
  /// that tile's kernel; records of different tiles may arrive
  /// concurrently under parallel tiled execution.
  virtual void on_trace(std::uint32_t /*tile*/, const TraceRecord& /*rec*/) {}
  /// A signal changed level (Signal::set fires only on actual changes).
  virtual void on_signal(const Signal& /*sig*/, bool /*old_level*/) {}

 protected:
  static constexpr bool kConsumesTrace = true;
  explicit Observer(bool consumes_trace = false)
      : consumes_trace_(consumes_trace) {}

 private:
  const bool consumes_trace_;
};

/// The observers attached to one platform, in attach order. Attach and
/// detach between runs only: tiles read the list while they run.
class ObserverList {
 public:
  /// Add `o`, which must not be attached already.
  void attach(Observer& o) {
    list_.push_back(&o);
    if (o.consumes_trace()) ++tracing_;
  }
  /// Remove `o`; detaching an observer that is not attached does nothing.
  void detach(Observer& o) {
    const auto it = std::find(list_.begin(), list_.end(), &o);
    if (it == list_.end()) return;
    list_.erase(it);
    if (o.consumes_trace()) --tracing_;
  }

  [[nodiscard]] bool empty() const { return list_.empty(); }
  /// True when an attached observer consumes trace records.
  [[nodiscard]] bool tracing() const { return tracing_ > 0; }
  [[nodiscard]] auto begin() const { return list_.begin(); }
  [[nodiscard]] auto end() const { return list_.end(); }

 private:
  std::vector<Observer*> list_;
  std::uint32_t tracing_ = 0;
};

/// The list of a component built outside a Platform (unit tests): always
/// empty, so every hook site is a no-op.
inline const ObserverList kNoObservers;

}  // namespace rw::sim
