#include "fault/watchdog.hpp"

#include <stdexcept>

namespace rw::fault {

WatchdogPeripheral::WatchdogPeripheral(sim::Kernel& kernel,
                                       sim::Tracer& tracer,
                                       sim::InterruptController& irqc,
                                       std::size_t irq_line, std::string name)
    : Peripheral(std::move(name)),
      kernel_(kernel),
      tracer_(tracer),
      irqc_(irqc),
      irq_line_(irq_line),
      expired_(Peripheral::name() + ".expired", tracer.observers()) {}

void WatchdogPeripheral::arm(DurationPs timeout) {
  if (timeout == 0)
    throw std::invalid_argument("watchdog timeout must be > 0");
  timeout_ = timeout;
  armed_ = true;
  ++generation_;
  tracer_.record(kernel_.now(), sim::TraceKind::kCustom, sim::CoreId{},
                 "wdt.arm", timeout, 0);
  schedule_expiry();
}

void WatchdogPeripheral::kick() {
  ++kick_count_;
  if (!armed_) return;
  ++generation_;  // the outstanding expiry becomes a no-op
  schedule_expiry();
}

void WatchdogPeripheral::disarm() {
  if (!armed_) return;
  armed_ = false;
  ++generation_;
  tracer_.record(kernel_.now(), sim::TraceKind::kCustom, sim::CoreId{},
                 "wdt.disarm", expired_count_, kick_count_);
}

void WatchdogPeripheral::schedule_expiry() {
  const std::uint64_t gen = generation_;
  // LIVE event on purpose: expiry must fire exactly when nothing else is
  // happening (see the header's liveness note).
  kernel_.schedule_in(timeout_, [this, gen] {
    if (gen != generation_ || !armed_) return;  // kicked or disarmed
    ++expired_count_;
    tracer_.record(kernel_.now(), sim::TraceKind::kCustom, sim::CoreId{},
                   "wdt.expire", expired_count_, 0);
    expired_.pulse();
    irqc_.raise(irq_line_);
    ++generation_;
    schedule_expiry();  // auto re-arm
  });
}

std::uint64_t WatchdogPeripheral::read_reg(std::size_t index) const {
  switch (index) {
    case kRegTimeoutPs: return timeout_;
    case kRegCtrl: return armed_ ? 1 : 0;
    case kRegKick: return 0;
    case kRegExpiredCount: return expired_count_;
    case kRegKickCount: return kick_count_;
    default: throw std::out_of_range("wdt register index");
  }
}

void WatchdogPeripheral::write_reg(std::size_t index, std::uint64_t value) {
  switch (index) {
    case kRegTimeoutPs:
      timeout_ = value;
      break;
    case kRegCtrl:
      if (value & 1ULL) {
        arm(timeout_);
      } else {
        disarm();
      }
      break;
    case kRegKick:
      kick();
      break;
    default:
      throw std::out_of_range("wdt register not writable");
  }
}

std::vector<sim::RegInfo> WatchdogPeripheral::registers() const {
  return {{"TIMEOUT_PS", kRegTimeoutPs},
          {"CTRL", kRegCtrl},
          {"KICK", kRegKick},
          {"EXPIRED_COUNT", kRegExpiredCount},
          {"KICK_COUNT", kRegKickCount}};
}

std::vector<sim::Signal*> WatchdogPeripheral::signals() {
  return {&expired_};
}

}  // namespace rw::fault
