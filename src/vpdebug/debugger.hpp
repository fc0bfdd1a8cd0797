// Virtual-platform debugger (Sec. VII).
//
// "Using a virtual platform the entire system can be synchronously
// suspended from execution. This non-intrusive system suspension does not
// impact the system behaviour ... During a system suspend, a virtual
// platform provides a consistent view into the state of all cores and
// peripherals."
//
// The Debugger owns run control over a Platform's kernel. Because the
// platform is a single deterministic event simulation, suspending between
// events is *exactly* non-intrusive: simulated time does not advance while
// the debugger inspects cores, memories, peripheral registers and signals.
// Breakpoints and watchpoints stop the whole system, not one core. The
// debugger is a sim::Observer attached to the platform for its lifetime:
// task breakpoints watch the trace, watchpoints the memory accesses and
// signal changes.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/platform.hpp"

namespace rw::vpdebug {

enum class StopKind : std::uint8_t {
  kNone,
  kBreakpointTask,   // a compute block with a watched label started
  kWatchpointMem,    // a watched address was accessed
  kWatchpointSignal, // a watched signal changed level
  kAssertion,        // a scripted assertion failed
  kTimeReached,      // run-until target hit
  kFinished,         // event queue drained
  kManual,           // user-requested stop
};

const char* stop_kind_name(StopKind k);

struct StopInfo {
  StopKind kind = StopKind::kNone;
  TimePs time = 0;
  std::string detail;
};

class Debugger final : public sim::Observer {
 public:
  explicit Debugger(sim::Platform& platform);
  ~Debugger() override;
  Debugger(const Debugger&) = delete;
  Debugger& operator=(const Debugger&) = delete;

  // ------------------------------------------------------- run control
  /// Run until a stop condition fires or the queue drains.
  StopInfo resume(std::uint64_t max_events = UINT64_MAX);
  /// Run until simulated time t (or an earlier stop condition).
  StopInfo run_until(TimePs t);
  /// Execute exactly one kernel event.
  StopInfo step_event();

  // ------------------------------------------------------ breakpoints
  /// Stop when a compute block whose label contains `label` starts.
  std::size_t break_on_task(std::string label);
  /// Stop when memory in [addr, addr+len) is accessed (write and/or read).
  std::size_t watch_memory(sim::Addr addr, std::uint64_t len,
                           bool on_write = true, bool on_read = false);
  /// Stop when the named signal changes (e.g. "irq3", "dma.busy").
  std::size_t watch_signal(const std::string& name);

  /// Assertions: predicate evaluated after every event; returning false
  /// suspends the system with kAssertion.
  std::size_t add_assertion(std::string description,
                            std::function<bool()> predicate);

  // ------------------------------------------------- state inspection
  [[nodiscard]] const StopInfo& last_stop() const { return last_stop_; }

  /// Consistent whole-system snapshot, printable while suspended.
  [[nodiscard]] std::string snapshot() const;

  [[nodiscard]] std::uint64_t core_register(std::size_t core,
                                            std::size_t reg) const;
  [[nodiscard]] std::uint64_t peripheral_register(const std::string& periph,
                                                  std::size_t reg) const;
  [[nodiscard]] std::uint64_t read_mem_u64(sim::Addr addr) const;

  [[nodiscard]] sim::Platform& platform() { return platform_; }

 private:
  // sim::Observer
  void on_trace(std::uint32_t tile, const sim::TraceRecord& ev) override;
  void on_mem_access(const sim::MemAccess& acc) override;
  void on_signal(const sim::Signal& sig, bool old_level) override;

  void request_stop(StopKind kind, std::string detail);

  sim::Platform& platform_;
  StopInfo last_stop_;
  std::optional<StopInfo> pending_stop_;

  std::vector<std::string> task_breaks_;
  struct MemWatch {
    sim::Addr addr;
    std::uint64_t len;
    bool on_write, on_read;
  };
  std::vector<MemWatch> mem_watches_;
  std::vector<std::string> signal_watches_;
  struct Assertion {
    std::string description;
    std::function<bool()> predicate;
  };
  std::vector<Assertion> assertions_;
};

}  // namespace rw::vpdebug
