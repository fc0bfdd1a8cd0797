// Execution tracing.
//
// Sec. VII names "hardware and software tracing capabilities" as a key
// virtual-platform debugging feature: "a history of function execution
// within the different processes, and their access to memories and
// peripherals". Every component of the platform reports events here; the
// vpdebug layer and the experiment harnesses consume them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace rw::sim {

struct CoreTag {};
using CoreId = Id<CoreTag>;

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

struct TraceEvent {
  TimePs time = 0;
  TraceKind kind = TraceKind::kCustom;
  CoreId core{};
  std::string label;    // task/function/peripheral name
  std::uint64_t a = 0;  // kind-specific (address, irq line, value, ...)
  std::uint64_t b = 0;  // kind-specific (size, old value, ...)

  [[nodiscard]] std::string to_string() const;
};

/// Append-only trace buffer with an optional live listener (the debugger
/// hooks in here for watchpoints and scripted assertions).
///
/// Off path: a tracer that is disabled and has no listener is inactive,
/// and record() returns before it builds the event, so an unobserved run
/// pays one branch per trace point. Callers whose only work is tracing
/// test active() themselves (Core skips its ComputeStart event).
class Tracer {
 public:
  using Listener = std::function<void(const TraceEvent&)>;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// True when a record would be kept or seen by a listener.
  [[nodiscard]] bool active() const {
    return enabled_ || !listeners_.empty();
  }

  /// Live listener invoked synchronously on every event, even when buffer
  /// retention is disabled. Returns a token for removal.
  std::size_t add_listener(Listener fn) {
    listeners_.push_back(std::move(fn));
    return listeners_.size() - 1;
  }
  void clear_listeners() { listeners_.clear(); }

  void record(TraceEvent ev) {
    for (auto& l : listeners_)
      if (l) l(ev);
    if (enabled_) events_.push_back(std::move(ev));
  }

  void record(TimePs time, TraceKind kind, CoreId core,
              std::string_view label, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if (!active()) return;
    record(TraceEvent{time, kind, core, std::string(label), a, b});
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
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
  std::vector<Listener> listeners_;
};

}  // namespace rw::sim
