#include "sim/peripherals.hpp"

#include <stdexcept>

#include "common/strings.hpp"
#include "sim/interconnect.hpp"

namespace rw::sim {

// ----------------------------------------------------- InterruptController

namespace {

// Line names, short enough for the string's inline buffer: naming a line
// allocates nothing.
constexpr const char* kLineNames[InterruptController::kNumLines] = {
    "irq0",  "irq1",  "irq2",  "irq3",  "irq4",  "irq5",  "irq6",  "irq7",
    "irq8",  "irq9",  "irq10", "irq11", "irq12", "irq13", "irq14", "irq15",
    "irq16", "irq17", "irq18", "irq19", "irq20", "irq21", "irq22", "irq23",
    "irq24", "irq25", "irq26", "irq27", "irq28", "irq29", "irq30", "irq31"};

}  // namespace

InterruptController::InterruptController(Kernel& kernel, Tracer& tracer)
    : Peripheral("irqc"), kernel_(kernel), tracer_(tracer) {
  // Reserved once and never grown, so every Signal keeps its address
  // (debugger watches hold Signal*).
  lines_.reserve(kNumLines);
  for (const char* name : kLineNames)
    lines_.emplace_back(name, tracer.observers());
  handlers_.resize(kNumLines);
  drop_pending_.assign(kNumLines, 0);
}

void InterruptController::inject_drops(std::size_t line, std::uint64_t n) {
  if (line >= kNumLines) throw std::out_of_range("irq line out of range");
  drop_pending_[line] += n;
}

void InterruptController::raise(std::size_t line) {
  if (line >= kNumLines) throw std::out_of_range("irq line out of range");
  if (drop_pending_[line] > 0) {
    --drop_pending_[line];
    ++dropped_count_;
    tracer_.record(kernel_.now(), TraceKind::kCustom, CoreId{}, "irqc.drop",
                   line, 0);
    return;  // lost on the wire: no pending bit, no dispatch
  }
  ++raised_count_;
  pending_ |= (1ULL << line);
  lines_[line].raise();
  tracer_.record(kernel_.now(), TraceKind::kIrqRaise, CoreId{}, name(), line,
                 is_masked(line));
  if (!is_masked(line)) dispatch(line);
}

void InterruptController::dispatch(std::size_t line) {
  if (!handlers_[line]) return;
  // Dispatch as a kernel event so handler code never runs re-entrantly
  // inside the raising peripheral.
  kernel_.schedule_at(kernel_.now(), [this, line] {
    if (is_pending(line) && !is_masked(line) && handlers_[line])
      handlers_[line](line);
  });
}

void InterruptController::ack(std::size_t line) {
  if (line >= kNumLines) throw std::out_of_range("irq line out of range");
  pending_ &= ~(1ULL << line);
  lines_[line].lower();
  tracer_.record(kernel_.now(), TraceKind::kIrqAck, CoreId{}, name(), line,
                 0);
}

void InterruptController::set_masked(std::size_t line, bool masked) {
  if (line >= kNumLines) throw std::out_of_range("irq line out of range");
  const bool was_masked = is_masked(line);
  if (masked) {
    mask_ |= (1ULL << line);
  } else {
    mask_ &= ~(1ULL << line);
    // Unmasking a pending line delivers the interrupt now (Sec. VII's
    // wrongly-masked interrupt becomes visible the moment the mask drops).
    if (was_masked && is_pending(line)) dispatch(line);
  }
}

bool InterruptController::is_masked(std::size_t line) const {
  return (mask_ >> line) & 1ULL;
}

bool InterruptController::is_pending(std::size_t line) const {
  return (pending_ >> line) & 1ULL;
}

void InterruptController::set_handler(std::size_t line, Handler fn) {
  handlers_.at(line) = std::move(fn);
}

std::uint64_t InterruptController::read_reg(std::size_t index) const {
  switch (index) {
    case kRegPending: return pending_;
    case kRegMask: return mask_;
    case kRegRaisedCount: return raised_count_;
    case kRegDropCount: return dropped_count_;
    default: throw std::out_of_range("irqc register index");
  }
}

void InterruptController::write_reg(std::size_t index, std::uint64_t value) {
  switch (index) {
    case kRegMask:
      for (std::size_t line = 0; line < kNumLines; ++line)
        set_masked(line, (value >> line) & 1ULL);
      break;
    case kRegPending:
      // Write-one-to-clear semantics.
      for (std::size_t line = 0; line < kNumLines; ++line)
        if ((value >> line) & 1ULL) ack(line);
      break;
    default:
      throw std::out_of_range("irqc register not writable");
  }
}

std::vector<RegInfo> InterruptController::registers() const {
  return {{"PENDING", kRegPending},
          {"MASK", kRegMask},
          {"RAISED_COUNT", kRegRaisedCount},
          {"DROP_COUNT", kRegDropCount}};
}

std::vector<Signal*> InterruptController::signals() {
  std::vector<Signal*> out;
  out.reserve(lines_.size());
  for (Signal& l : lines_) out.push_back(&l);
  return out;
}

// --------------------------------------------------------- TimerPeripheral

TimerPeripheral::TimerPeripheral(Kernel& kernel, Tracer& tracer,
                                 InterruptController& irqc,
                                 std::size_t irq_line, std::string name)
    : Peripheral(std::move(name)),
      kernel_(kernel),
      tracer_(tracer),
      irqc_(irqc),
      irq_line_(irq_line),
      expired_(Peripheral::name() + ".expired", tracer.observers()) {}

void TimerPeripheral::start_periodic(DurationPs period) {
  if (period == 0) throw std::invalid_argument("timer period must be > 0");
  period_ = period;
  periodic_ = true;
  running_ = true;
  ++generation_;
  schedule_fire();
}

void TimerPeripheral::start_oneshot(DurationPs delay) {
  if (delay == 0) throw std::invalid_argument("timer delay must be > 0");
  period_ = delay;
  periodic_ = false;
  running_ = true;
  ++generation_;
  schedule_fire();
}

void TimerPeripheral::stop() {
  running_ = false;
  ++generation_;
}

void TimerPeripheral::schedule_fire() {
  const std::uint64_t gen = generation_;
  kernel_.schedule_in(period_, [this, gen] {
    if (gen != generation_ || !running_) return;  // cancelled/restarted
    ++fire_count_;
    expired_.pulse();
    irqc_.raise(irq_line_);
    if (periodic_) {
      schedule_fire();
    } else {
      running_ = false;
    }
  });
}

std::uint64_t TimerPeripheral::read_reg(std::size_t index) const {
  switch (index) {
    case kRegPeriodPs: return period_;
    case kRegCtrl:
      return (running_ ? 1ULL : 0ULL) | (periodic_ ? 2ULL : 0ULL);
    case kRegFireCount: return fire_count_;
    default: throw std::out_of_range("timer register index");
  }
}

void TimerPeripheral::write_reg(std::size_t index, std::uint64_t value) {
  switch (index) {
    case kRegPeriodPs:
      period_ = value;
      break;
    case kRegCtrl:
      if ((value & 1ULL) == 0) {
        stop();
      } else if (value & 2ULL) {
        start_periodic(period_);
      } else {
        start_oneshot(period_);
      }
      break;
    default:
      throw std::out_of_range("timer register not writable");
  }
}

std::vector<RegInfo> TimerPeripheral::registers() const {
  return {{"PERIOD_PS", kRegPeriodPs},
          {"CTRL", kRegCtrl},
          {"FIRE_COUNT", kRegFireCount}};
}

std::vector<Signal*> TimerPeripheral::signals() { return {&expired_}; }

// --------------------------------------------------------------- DmaEngine

DmaEngine::DmaEngine(Kernel& kernel, Tracer& tracer, MemorySystem& memory,
                     Interconnect* icn, InterruptController& irqc,
                     std::size_t irq_line)
    : Peripheral("dma"),
      kernel_(kernel),
      tracer_(tracer),
      memory_(memory),
      icn_(icn),
      irqc_(irqc),
      irq_line_(irq_line),
      busy_signal_("dma.busy", tracer.observers()) {}

bool DmaEngine::start(Addr src, Addr dst, std::uint64_t len,
                      EventFn on_done) {
  if (busy_) throw std::runtime_error("DMA engine is busy");
  // Rejected programming latches ERROR and schedules nothing — a silent
  // no-op completion would hide the bug from both software and the trace.
  if (len == 0) {
    error_ = kErrZeroLength;
    tracer_.record(kernel_.now(), TraceKind::kCustom, CoreId{}, "dma.reject",
                   kErrZeroLength, src);
    return false;
  }
  if (src < dst + len && dst < src + len) {
    error_ = kErrOverlap;
    tracer_.record(kernel_.now(), TraceKind::kCustom, CoreId{}, "dma.reject",
                   kErrOverlap, src);
    return false;
  }
  busy_ = true;
  error_ = kErrNone;
  src_ = src;
  dst_ = dst;
  len_ = len;
  on_done_ = std::move(on_done);
  busy_signal_.raise();
  tracer_.record(kernel_.now(), TraceKind::kDmaStart, CoreId{}, name(), src,
                 len);

  // Transfer time over the interconnect (DMA acts as an anonymous master).
  TimePs finish = kernel_.now();
  if (icn_ != nullptr) {
    finish = icn_->reserve_transfer(CoreId{0}, CoreId{0}, len, kernel_.now())
                 .second;
  } else {
    finish += nanoseconds(len);  // fallback: 1 byte/ns
  }

  const std::uint64_t gen = generation_;
  kernel_.schedule_at(finish, [this, gen, started = kernel_.now()] {
    if (gen != generation_) return;  // transfer was aborted mid-flight
    // Detach the callback first: it may start (and re-arm) the engine.
    EventFn done = std::move(on_done_);
    std::vector<std::uint8_t> buf(len_);
    memory_.read_block(CoreId{}, src_, buf);
    memory_.write_block(CoreId{}, dst_, buf);
    busy_ = false;
    ++done_count_;
    busy_signal_.lower();
    tracer_.record(kernel_.now(), TraceKind::kDmaEnd, CoreId{}, name(),
                   dst_, len_);
    for (Observer* o : tracer_.observers())
      o->on_dma(len_, started, kernel_.now());
    irqc_.raise(irq_line_);
    if (done) done();
  });
  return true;
}

bool DmaEngine::abort() {
  if (!busy_) return false;
  ++generation_;  // the in-flight completion event becomes a no-op
  busy_ = false;
  ++abort_count_;
  error_ = kErrAborted;
  on_done_ = {};
  busy_signal_.lower();
  tracer_.record(kernel_.now(), TraceKind::kCustom, CoreId{}, "dma.abort",
                 src_, len_);
  // The completion IRQ still fires: software polls ERROR, sees kErrAborted,
  // and knows the destination block never arrived.
  irqc_.raise(irq_line_);
  return true;
}

std::uint64_t DmaEngine::read_reg(std::size_t index) const {
  switch (index) {
    case kRegSrc: return src_;
    case kRegDst: return dst_;
    case kRegLen: return len_;
    case kRegStatus: return busy_ ? 1 : 0;
    case kRegDoneCount: return done_count_;
    case kRegError: return error_;
    default: throw std::out_of_range("dma register index");
  }
}

void DmaEngine::write_reg(std::size_t index, std::uint64_t value) {
  switch (index) {
    case kRegSrc: src_ = value; break;
    case kRegDst: dst_ = value; break;
    case kRegLen: len_ = value; break;
    case kRegStatus:
      if (value == 1) start(src_, dst_, len_);
      break;
    default:
      throw std::out_of_range("dma register not writable");
  }
}

std::vector<RegInfo> DmaEngine::registers() const {
  return {{"SRC", kRegSrc},
          {"DST", kRegDst},
          {"LEN", kRegLen},
          {"STATUS", kRegStatus},
          {"DONE_COUNT", kRegDoneCount},
          {"ERROR", kRegError}};
}

std::vector<Signal*> DmaEngine::signals() { return {&busy_signal_}; }

// ------------------------------------------------------------ HwSemaphores

HwSemaphores::HwSemaphores(Kernel& kernel, Tracer& tracer, std::size_t cells)
    : Peripheral("hwsem"), kernel_(kernel), tracer_(tracer) {
  holders_.assign(cells, CoreId{});
}

bool HwSemaphores::try_acquire(std::size_t cell, CoreId by) {
  auto& holder = holders_.at(cell);
  if (holder.is_valid()) return false;
  holder = by;
  tracer_.record(kernel_.now(), TraceKind::kCustom, by, "hwsem.acquire",
                 cell, 1);
  return true;
}

void HwSemaphores::release(std::size_t cell, CoreId by) {
  auto& holder = holders_.at(cell);
  if (holder != by)
    throw std::logic_error("semaphore released by a non-holder");
  holder = CoreId{};
  tracer_.record(kernel_.now(), TraceKind::kCustom, by, "hwsem.release",
                 cell, 0);
}

bool HwSemaphores::force_release(std::size_t cell) {
  auto& holder = holders_.at(cell);
  if (!holder.is_valid()) return false;
  tracer_.record(kernel_.now(), TraceKind::kCustom, holder,
                 "hwsem.force_release", cell, 0);
  holder = CoreId{};
  return true;
}

bool HwSemaphores::held(std::size_t cell) const {
  return holders_.at(cell).is_valid();
}

CoreId HwSemaphores::holder(std::size_t cell) const {
  return holders_.at(cell);
}

std::uint64_t HwSemaphores::read_reg(std::size_t index) const {
  const auto& h = holders_.at(index);
  return h.is_valid() ? h.value() + 1ULL : 0ULL;
}

void HwSemaphores::write_reg(std::size_t index, std::uint64_t value) {
  if (value == 0) holders_.at(index) = CoreId{};
}

std::vector<RegInfo> HwSemaphores::registers() const {
  std::vector<RegInfo> out;
  out.reserve(holders_.size());
  for (std::size_t i = 0; i < holders_.size(); ++i)
    out.push_back({strformat("SEM%zu", i), i});
  return out;
}

}  // namespace rw::sim
