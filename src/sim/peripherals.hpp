// Shared platform peripherals: interrupt controller, timer, DMA,
// hardware semaphores.
//
// Sec. VII lists exactly these as the "shared platform resources [that]
// may not be controlled anymore by a single software stack" — the things a
// debugger must be able to inspect consistently. Every peripheral exposes
// a named register file (for the vpdebug register view) and named signals
// (for signal watchpoints).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/kernel.hpp"
#include "sim/memory.hpp"
#include "sim/signal.hpp"
#include "sim/trace.hpp"

namespace rw::sim {

class Interconnect;

/// Debugger-facing description of one peripheral register.
struct RegInfo {
  std::string name;
  std::size_t index;
};

/// Base class for memory-mapped-style peripherals.
class Peripheral {
 public:
  explicit Peripheral(std::string name) : name_(std::move(name)) {}
  virtual ~Peripheral() = default;
  Peripheral(const Peripheral&) = delete;
  Peripheral& operator=(const Peripheral&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Register file access (index space defined per peripheral).
  [[nodiscard]] virtual std::uint64_t read_reg(std::size_t index) const = 0;
  virtual void write_reg(std::size_t index, std::uint64_t value) = 0;
  [[nodiscard]] virtual std::vector<RegInfo> registers() const = 0;

  /// Signals the debugger can watch.
  [[nodiscard]] virtual std::vector<Signal*> signals() { return {}; }

 private:
  std::string name_;
};

/// Level-triggered interrupt controller with per-line mask/pending bits.
class InterruptController final : public Peripheral {
 public:
  static constexpr std::size_t kNumLines = 32;
  // Register indices.
  static constexpr std::size_t kRegPending = 0;
  static constexpr std::size_t kRegMask = 1;
  static constexpr std::size_t kRegRaisedCount = 2;
  static constexpr std::size_t kRegDropCount = 3;

  InterruptController(Kernel& kernel, Tracer& tracer);

  /// Assert a line. If unmasked, the registered handler is dispatched as a
  /// kernel event at the current time. If masked, the interrupt stays
  /// pending and fires on unmask — the wrongly-masked-interrupt scenario
  /// from Sec. VII is reproducible.
  void raise(std::size_t line);

  /// Acknowledge (clear pending, lower the line signal).
  void ack(std::size_t line);

  /// Mask control. Unmasking a pending line dispatches it immediately.
  void set_masked(std::size_t line, bool masked);
  [[nodiscard]] bool is_masked(std::size_t line) const;
  [[nodiscard]] bool is_pending(std::size_t line) const;

  using Handler = std::function<void(std::size_t line)>;
  void set_handler(std::size_t line, Handler fn);

  /// Fault model (rw::fault): arm the next `n` raise() calls on `line` to
  /// be silently lost — the wrongly-dropped interrupt of Sec. VII. The
  /// line never goes pending and no handler runs; the loss is only
  /// visible in DROP_COUNT and the trace ("irqc.drop"), which is what
  /// makes it a detection problem. A *spurious* interrupt needs no
  /// special hook: injectors simply call raise() on an unexpected line.
  void inject_drops(std::size_t line, std::uint64_t n);
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_count_; }

  /// Signal for a line (watchpoint target).
  Signal& line_signal(std::size_t line) { return lines_.at(line); }

  std::uint64_t read_reg(std::size_t index) const override;
  void write_reg(std::size_t index, std::uint64_t value) override;
  std::vector<RegInfo> registers() const override;
  std::vector<Signal*> signals() override;

 private:
  void dispatch(std::size_t line);

  Kernel& kernel_;
  Tracer& tracer_;
  std::uint64_t pending_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t raised_count_ = 0;
  std::uint64_t dropped_count_ = 0;
  std::vector<std::uint64_t> drop_pending_;  // armed drops per line
  std::vector<Signal> lines_;  // kNumLines, reserved up front
  std::vector<Handler> handlers_;
};

/// Programmable periodic / one-shot timer bound to an interrupt line.
class TimerPeripheral final : public Peripheral {
 public:
  static constexpr std::size_t kRegPeriodPs = 0;
  static constexpr std::size_t kRegCtrl = 1;   // bit0 enable, bit1 periodic
  static constexpr std::size_t kRegFireCount = 2;

  TimerPeripheral(Kernel& kernel, Tracer& tracer, InterruptController& irqc,
                  std::size_t irq_line, std::string name = "timer");

  /// Start firing every `period` ps (first fire after one period).
  void start_periodic(DurationPs period);
  void start_oneshot(DurationPs delay);
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t fire_count() const { return fire_count_; }
  Signal& expired_signal() { return expired_; }

  std::uint64_t read_reg(std::size_t index) const override;
  void write_reg(std::size_t index, std::uint64_t value) override;
  std::vector<RegInfo> registers() const override;
  std::vector<Signal*> signals() override;

 private:
  void schedule_fire();

  Kernel& kernel_;
  Tracer& tracer_;
  InterruptController& irqc_;
  std::size_t irq_line_;
  DurationPs period_ = 0;
  bool periodic_ = false;
  bool running_ = false;
  std::uint64_t generation_ = 0;  // invalidates stale fire events
  std::uint64_t fire_count_ = 0;
  Signal expired_;
};

/// DMA engine: copies blocks between memory regions over the interconnect
/// and raises an interrupt on completion.
class DmaEngine final : public Peripheral {
 public:
  static constexpr std::size_t kRegSrc = 0;
  static constexpr std::size_t kRegDst = 1;
  static constexpr std::size_t kRegLen = 2;
  static constexpr std::size_t kRegStatus = 3;  // 0 idle, 1 busy
  static constexpr std::size_t kRegDoneCount = 4;
  static constexpr std::size_t kRegError = 5;

  /// ERROR register values. Rejected programming never schedules a
  /// completion (no silent no-op transfer): the error is latched here for
  /// software to poll, exactly like a real engine's error status.
  enum ErrorCode : std::uint64_t {
    kErrNone = 0,
    kErrZeroLength = 1,
    kErrOverlap = 2,
    kErrAborted = 3,
  };

  DmaEngine(Kernel& kernel, Tracer& tracer, MemorySystem& memory,
            Interconnect* icn, InterruptController& irqc,
            std::size_t irq_line);

  /// Start an asynchronous copy; throws if the engine is busy (programming
  /// error), returns false after latching ERROR for rejected programming —
  /// zero length or overlapping src/dst ranges. `on_done` runs at
  /// completion time, after the completion interrupt is raised.
  /// It is taken by value and moved end-to-end (kernel-owned callable
  /// type, so move-only captures work and nothing is copied or heap-
  /// allocated on the way to the completion event).
  bool start(Addr src, Addr dst, std::uint64_t len, EventFn on_done = {});

  /// Fault model (rw::fault): abort the in-flight transfer. No data moves,
  /// no completion fires; ERROR latches kErrAborted and the completion IRQ
  /// is raised so software notices the hole. Returns false when idle.
  bool abort();

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] ErrorCode error() const { return error_; }
  [[nodiscard]] std::uint64_t abort_count() const { return abort_count_; }
  Signal& busy_signal() { return busy_signal_; }

  std::uint64_t read_reg(std::size_t index) const override;
  void write_reg(std::size_t index, std::uint64_t value) override;
  std::vector<RegInfo> registers() const override;
  std::vector<Signal*> signals() override;

 private:
  Kernel& kernel_;
  Tracer& tracer_;
  MemorySystem& memory_;
  Interconnect* icn_;
  InterruptController& irqc_;
  std::size_t irq_line_;
  bool busy_ = false;
  Addr src_ = 0, dst_ = 0;
  std::uint64_t len_ = 0;
  std::uint64_t done_count_ = 0;
  std::uint64_t abort_count_ = 0;
  ErrorCode error_ = kErrNone;
  std::uint64_t generation_ = 0;  // invalidates aborted completion events
  Signal busy_signal_;
  // One transfer outstanding at a time (guarded by busy_), so the pending
  // completion callback lives here instead of inside the kernel event —
  // the event capture then stays within EventFn's inline buffer.
  EventFn on_done_;
};

/// Bank of hardware test-and-set semaphores (one register per cell).
/// Reading a cell returns its previous value and sets it (acquire);
/// writing 0 releases. This is the classic MPSoC synchronization block.
class HwSemaphores final : public Peripheral {
 public:
  explicit HwSemaphores(Kernel& kernel, Tracer& tracer,
                        std::size_t cells = 16);

  /// Atomic test-and-set; returns true when the semaphore was acquired.
  bool try_acquire(std::size_t cell, CoreId by);
  void release(std::size_t cell, CoreId by);
  [[nodiscard]] bool held(std::size_t cell) const;
  [[nodiscard]] CoreId holder(std::size_t cell) const;
  [[nodiscard]] std::size_t num_cells() const { return holders_.size(); }

  /// Recovery hook (rw::fault): release a cell regardless of holder —
  /// what watchdog recovery does after the holding core died, so other
  /// cores don't livelock on a semaphore nobody can release. Returns
  /// false when the cell was already free.
  bool force_release(std::size_t cell);

  std::uint64_t read_reg(std::size_t index) const override;
  void write_reg(std::size_t index, std::uint64_t value) override;
  std::vector<RegInfo> registers() const override;

 private:
  Kernel& kernel_;
  Tracer& tracer_;
  std::vector<CoreId> holders_;
};

}  // namespace rw::sim
