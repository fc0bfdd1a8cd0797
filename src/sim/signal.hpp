// Named boolean signals with observers.
//
// Sec. VII: "A watchpoint can be set on a signal, such as the interrupt
// line of a peripheral." Signals are the debugger-visible wires of the
// platform: interrupt lines, DMA-busy, timer-expired. Every level change
// reaches the attached observers synchronously (Observer::on_signal).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/observer.hpp"

namespace rw::sim {

class Signal {
 public:
  /// `observers` is the list of the platform the signal belongs to.
  explicit Signal(std::string name,
                  const ObserverList& observers = kNoObservers,
                  bool level = false)
      : name_(std::move(name)), observers_(&observers), level_(level) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool level() const { return level_; }
  [[nodiscard]] std::uint64_t toggle_count() const { return toggles_; }

  /// Drive the signal; observers run only on actual level changes.
  void set(bool level) {
    if (level == level_) return;
    const bool old = level_;
    level_ = level;
    ++toggles_;
    for (Observer* o : *observers_) o->on_signal(*this, old);
  }

  void raise() { set(true); }
  void lower() { set(false); }

  /// Pulse: raise then immediately lower (both edges observable).
  void pulse() {
    set(true);
    set(false);
  }

 private:
  std::string name_;
  const ObserverList* observers_;
  bool level_;
  std::uint64_t toggles_ = 0;
};

}  // namespace rw::sim
