#include "fault/plan.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace rw::fault {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kCoreCrash: return "core_crash";
    case FaultKind::kCoreStall: return "core_stall";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kPacketDrop: return "packet_drop";
    case FaultKind::kMemBitFlip: return "mem_bitflip";
    case FaultKind::kDmaAbort: return "dma_abort";
    case FaultKind::kIrqDrop: return "irq_drop";
    case FaultKind::kIrqSpurious: return "irq_spurious";
  }
  return "?";
}

bool fault_kind_from_name(std::string_view name, FaultKind& out) {
  for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
    const auto k = static_cast<FaultKind>(i);
    if (name == fault_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

FaultPlan& FaultPlan::crash_core(TimePs t, std::uint32_t core) {
  return add({t, FaultKind::kCoreCrash, core, 0, 0});
}

FaultPlan& FaultPlan::stall_core(TimePs t, std::uint32_t core,
                                 DurationPs d) {
  return add({t, FaultKind::kCoreStall, core, d, 0});
}

FaultPlan& FaultPlan::degrade_link(TimePs t, std::uint32_t link,
                                   double factor) {
  const auto milli = static_cast<std::uint64_t>(
      (factor < 1.0 ? 1.0 : factor) * 1000.0 + 0.5);
  return add({t, FaultKind::kLinkDegrade, link, milli, 0});
}

FaultPlan& FaultPlan::degrade_fabric(TimePs t, double factor) {
  return degrade_link(t, kFabricWide, factor);
}

FaultPlan& FaultPlan::drop_packets(TimePs t, std::uint64_t count) {
  return add({t, FaultKind::kPacketDrop, 0, count, 0});
}

FaultPlan& FaultPlan::flip_bit(TimePs t, std::uint64_t addr,
                               std::uint32_t bit) {
  return add({t, FaultKind::kMemBitFlip, 0, addr, bit % 8});
}

FaultPlan& FaultPlan::abort_dma(TimePs t) {
  return add({t, FaultKind::kDmaAbort, 0, 0, 0});
}

FaultPlan& FaultPlan::drop_irqs(TimePs t, std::uint32_t line,
                                std::uint64_t count) {
  return add({t, FaultKind::kIrqDrop, line, count, 0});
}

FaultPlan& FaultPlan::spurious_irq(TimePs t, std::uint32_t line) {
  return add({t, FaultKind::kIrqSpurious, line, 0, 0});
}

FaultPlan& FaultPlan::add(FaultEvent e) {
  events_.push_back(e);
  return *this;
}

std::vector<FaultEvent> FaultPlan::events() const {
  auto out = events_;
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const RandomSpec& spec) {
  FaultPlan plan;
  if (spec.rate_per_ms <= 0.0 || spec.window_end <= spec.window_start)
    return plan;
  Rng rng(seed);
  const double mean_gap_ps = 1e9 / spec.rate_per_ms;  // 1 ms = 1e9 ps

  std::uint32_t weights[] = {
      spec.weight_crash,
      spec.weight_stall,
      spec.weight_degrade,
      spec.weight_drop,
      spec.weight_bitflip && spec.mem_size > 0 ? spec.weight_bitflip : 0,
      spec.weight_dma_abort,
      spec.weight_irq_drop,
      spec.weight_irq_spurious,
  };
  for (std::size_t i = 0; i < kNumFaultKinds; ++i)
    if (!spec.kind_enabled(static_cast<FaultKind>(i))) weights[i] = 0;
  std::uint64_t total = 0;
  for (const auto w : weights) total += w;
  if (total == 0 || spec.num_cores == 0) return plan;

  double t = static_cast<double>(spec.window_start);
  for (;;) {
    t += rng.next_exponential(mean_gap_ps);
    const auto when = static_cast<TimePs>(t);
    if (when >= spec.window_end) break;

    std::uint64_t pick = rng.next_below(total);
    std::size_t kind = 0;
    while (pick >= weights[kind]) pick -= weights[kind++];

    const auto core =
        static_cast<std::uint32_t>(rng.next_below(spec.num_cores));
    switch (static_cast<FaultKind>(kind)) {
      case FaultKind::kCoreCrash:
        plan.crash_core(when, core);
        break;
      case FaultKind::kCoreStall:
        // 0.5 us to ~4.5 us of lost availability.
        plan.stall_core(when, core,
                        nanoseconds(500 + rng.next_below(4000)));
        break;
      case FaultKind::kLinkDegrade: {
        const double factor = 1.5 + rng.next_double() * 2.5;  // 1.5x..4x
        if (spec.num_links > 0 && rng.next_bool(0.5)) {
          plan.degrade_link(
              when, static_cast<std::uint32_t>(rng.next_below(spec.num_links)),
              factor);
        } else {
          plan.degrade_fabric(when, factor);
        }
        break;
      }
      case FaultKind::kPacketDrop:
        plan.drop_packets(when, 1 + rng.next_below(8));
        break;
      case FaultKind::kMemBitFlip:
        plan.flip_bit(when, spec.mem_base + rng.next_below(spec.mem_size),
                      static_cast<std::uint32_t>(rng.next_below(8)));
        break;
      case FaultKind::kDmaAbort:
        plan.abort_dma(when);
        break;
      case FaultKind::kIrqDrop:
        plan.drop_irqs(when, core, 1 + rng.next_below(3));
        break;
      case FaultKind::kIrqSpurious:
        plan.spurious_irq(when, core);
        break;
    }
  }
  return plan;
}

Result<FaultPlan> FaultPlan::from_json(std::string_view text) {
  const json::Value doc = RW_TRY(json::parse(text));
  return from_json_value(doc);
}

Result<FaultPlan> FaultPlan::from_json_value(const json::Value& doc) {
  if (!doc.is_object())
    return make_error("fault plan: document is not an object");
  if (const std::string schema = doc.get_string("schema");
      schema != "rw-fault-plan-1")
    return make_error("fault plan: unsupported schema '" + schema + "'");
  const json::Value* events = doc.get("events");
  if (events == nullptr || !events->is_array())
    return make_error("fault plan: missing events array");

  FaultPlan plan;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Value& ev = events->at(i);
    const std::string where = "fault plan: event " + std::to_string(i);
    if (!ev.is_object()) return make_error(where + " is not an object");
    FaultEvent e;
    const json::Value* kind = ev.get("kind");
    if (kind == nullptr || !kind->is_string() ||
        !fault_kind_from_name(kind->string(), e.kind))
      return make_error(where + ": unknown kind");
    for (const char* field : {"time_ps", "target", "a", "b"}) {
      const json::Value* v = ev.get(field);
      bool integral = false;
      if (v != nullptr && v->is_number()) (void)v->u64(&integral);
      if (!integral)
        return make_error(where + ": field '" + field +
                          "' missing or not an integer");
    }
    e.time = static_cast<TimePs>(ev.get_u64("time_ps"));
    e.target = static_cast<std::uint32_t>(ev.get_u64("target"));
    e.a = ev.get_u64("a");
    e.b = ev.get_u64("b");
    plan.add(e);
  }
  return plan;
}

void FaultPlan::write_json(json::Writer& w) const {
  w.begin_object();
  w.key("schema").value("rw-fault-plan-1");
  w.key("events").begin_array();
  for (const auto& e : events()) {
    w.begin_object();
    w.key("time_ps").value(static_cast<std::uint64_t>(e.time));
    w.key("kind").value(fault_kind_name(e.kind));
    w.key("target").value(static_cast<std::uint64_t>(e.target));
    w.key("a").value(e.a);
    w.key("b").value(e.b);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace rw::fault
