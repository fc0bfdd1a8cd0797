#include "vpdebug/debugger.hpp"

#include <cstring>
#include <stdexcept>

#include "common/strings.hpp"

namespace rw::vpdebug {

const char* stop_kind_name(StopKind k) {
  switch (k) {
    case StopKind::kNone: return "none";
    case StopKind::kBreakpointTask: return "breakpoint";
    case StopKind::kWatchpointMem: return "mem-watchpoint";
    case StopKind::kWatchpointSignal: return "signal-watchpoint";
    case StopKind::kAssertion: return "assertion";
    case StopKind::kTimeReached: return "time-reached";
    case StopKind::kFinished: return "finished";
    case StopKind::kManual: return "manual";
  }
  return "?";
}

Debugger::Debugger(sim::Platform& platform)
    : Observer(kConsumesTrace), platform_(platform) {
  platform_.attach(*this);
}

// Leave the platform functional: only our own hooks go.
Debugger::~Debugger() { platform_.detach(*this); }

void Debugger::on_trace(std::uint32_t /*tile*/, const sim::TraceRecord& ev) {
  if (ev.kind != sim::TraceKind::kComputeStart) return;
  for (const auto& label : task_breaks_) {
    if (ev.label.find(label) != std::string_view::npos) {
      request_stop(StopKind::kBreakpointTask,
                   "task '" + std::string(ev.label) + "' started on core" +
                       std::to_string(ev.core.value()));
    }
  }
}

void Debugger::on_mem_access(const sim::MemAccess& acc) {
  for (const auto& w : mem_watches_) {
    if (acc.addr + acc.size <= w.addr || acc.addr >= w.addr + w.len)
      continue;
    if ((acc.is_write && w.on_write) || (!acc.is_write && w.on_read)) {
      request_stop(StopKind::kWatchpointMem,
                   strformat("core%u %s 0x%llx (value %llu)",
                             acc.core.is_valid() ? acc.core.value() : 999,
                             acc.is_write ? "wrote" : "read",
                             static_cast<unsigned long long>(acc.addr),
                             static_cast<unsigned long long>(acc.value)));
    }
  }
}

void Debugger::on_signal(const sim::Signal& sig, bool old_level) {
  for (const auto& name : signal_watches_) {
    if (sig.name() == name) {
      request_stop(StopKind::kWatchpointSignal,
                   strformat("signal %s: %d -> %d", sig.name().c_str(),
                             old_level ? 1 : 0, sig.level() ? 1 : 0));
    }
  }
}

void Debugger::request_stop(StopKind kind, std::string detail) {
  // First stop reason per event wins; the kernel halts after the event.
  if (!pending_stop_) {
    pending_stop_ = StopInfo{kind, platform_.kernel().now(),
                             std::move(detail)};
  }
  platform_.kernel().request_stop();
}

StopInfo Debugger::resume(std::uint64_t max_events) {
  auto& kernel = platform_.kernel();
  pending_stop_.reset();
  std::uint64_t budget = max_events;
  while (budget-- > 0) {
    if (!kernel.step()) {
      last_stop_ = StopInfo{StopKind::kFinished, kernel.now(), "queue empty"};
      return last_stop_;
    }
    // Scripted assertions are checked on the consistent state between
    // events — the "system level software assertions" of Sec. VII.
    for (const auto& a : assertions_) {
      if (!a.predicate()) {
        pending_stop_ = StopInfo{StopKind::kAssertion, kernel.now(),
                                 "assertion failed: " + a.description};
        break;
      }
    }
    if (pending_stop_) {
      kernel.clear_stop();
      last_stop_ = *pending_stop_;
      return last_stop_;
    }
  }
  last_stop_ = StopInfo{StopKind::kManual, kernel.now(), "event budget"};
  return last_stop_;
}

StopInfo Debugger::run_until(TimePs t) {
  auto& kernel = platform_.kernel();
  pending_stop_.reset();
  while (!kernel.empty() && kernel.next_event_time() <= t) {
    const StopInfo s = step_event();
    if (s.kind != StopKind::kNone && s.kind != StopKind::kTimeReached)
      return s;
  }
  last_stop_ = StopInfo{kernel.empty() ? StopKind::kFinished
                                       : StopKind::kTimeReached,
                        kernel.now(), ""};
  return last_stop_;
}

StopInfo Debugger::step_event() {
  auto& kernel = platform_.kernel();
  pending_stop_.reset();
  if (!kernel.step()) {
    last_stop_ = StopInfo{StopKind::kFinished, kernel.now(), "queue empty"};
    return last_stop_;
  }
  for (const auto& a : assertions_) {
    if (!a.predicate()) {
      pending_stop_ = StopInfo{StopKind::kAssertion, kernel.now(),
                               "assertion failed: " + a.description};
      break;
    }
  }
  kernel.clear_stop();
  if (pending_stop_) {
    last_stop_ = *pending_stop_;
  } else {
    last_stop_ = StopInfo{StopKind::kNone, kernel.now(), ""};
  }
  return last_stop_;
}

std::size_t Debugger::break_on_task(std::string label) {
  task_breaks_.push_back(std::move(label));
  return task_breaks_.size() - 1;
}

std::size_t Debugger::watch_memory(sim::Addr addr, std::uint64_t len,
                                   bool on_write, bool on_read) {
  mem_watches_.push_back(MemWatch{addr, len, on_write, on_read});
  return mem_watches_.size() - 1;
}

std::size_t Debugger::watch_signal(const std::string& name) {
  signal_watches_.push_back(name);
  return signal_watches_.size() - 1;
}

std::size_t Debugger::add_assertion(std::string description,
                                    std::function<bool()> predicate) {
  assertions_.push_back({std::move(description), std::move(predicate)});
  return assertions_.size() - 1;
}

std::uint64_t Debugger::core_register(std::size_t core,
                                      std::size_t reg) const {
  return const_cast<sim::Platform&>(platform_).core(core).reg(reg);
}

std::uint64_t Debugger::peripheral_register(const std::string& periph,
                                            std::size_t reg) const {
  for (auto* p : const_cast<sim::Platform&>(platform_).peripherals())
    if (p->name() == periph) return p->read_reg(reg);
  throw std::invalid_argument("no peripheral '" + periph + "'");
}

std::uint64_t Debugger::read_mem_u64(sim::Addr addr) const {
  std::uint8_t buf[8] = {};
  platform_.memory().peek(addr, buf);  // non-intrusive: no latency, no trace
  std::uint64_t v = 0;
  std::memcpy(&v, buf, 8);
  return v;
}

std::string Debugger::snapshot() const {
  auto& p = const_cast<sim::Platform&>(platform_);
  std::string s =
      strformat("=== system suspended at %s ===\n",
                format_time(p.kernel().now()).c_str());
  for (std::size_t c = 0; c < p.core_count(); ++c) {
    auto& core = p.core(c);
    s += strformat("core%zu [%s @%s] task=%s r0=%llu r1=%llu\n", c,
                   sim::pe_class_name(core.pe_class()),
                   format_hz(core.frequency()).c_str(),
                   core.current_label().c_str(),
                   static_cast<unsigned long long>(core.reg(0)),
                   static_cast<unsigned long long>(core.reg(1)));
  }
  for (auto* periph : p.peripherals()) {
    s += strformat("%s:", periph->name().c_str());
    for (const auto& reg : periph->registers())
      s += strformat(" %s=%llu", reg.name.c_str(),
                     static_cast<unsigned long long>(
                         periph->read_reg(reg.index)));
    s += "\n";
  }
  return s;
}

}  // namespace rw::vpdebug
