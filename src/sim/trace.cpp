#include "sim/trace.hpp"

#include <deque>
#include <unordered_map>

namespace rw::sim {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kTaskStart: return "task_start";
    case TraceKind::kTaskEnd: return "task_end";
    case TraceKind::kComputeStart: return "compute_start";
    case TraceKind::kComputeEnd: return "compute_end";
    case TraceKind::kMsgSend: return "msg_send";
    case TraceKind::kMsgRecv: return "msg_recv";
    case TraceKind::kMemRead: return "mem_read";
    case TraceKind::kMemWrite: return "mem_write";
    case TraceKind::kIrqRaise: return "irq_raise";
    case TraceKind::kIrqAck: return "irq_ack";
    case TraceKind::kDmaStart: return "dma_start";
    case TraceKind::kDmaEnd: return "dma_end";
    case TraceKind::kFreqChange: return "freq_change";
    case TraceKind::kSchedDispatch: return "sched_dispatch";
    case TraceKind::kSchedPreempt: return "sched_preempt";
    case TraceKind::kCustom: return "custom";
  }
  return "?";
}

void Tracer::record_active(TimePs time, TraceKind kind, CoreId core,
                           std::string_view label, std::uint64_t a,
                           std::uint64_t b) {
  const TraceRecord rec{time, kind, core, label, a, b};
  if (observers_->tracing())
    for (Observer* o : *observers_)
      if (o->consumes_trace()) o->on_trace(tile_, rec);
  if (enabled_)
    events_.push_back(TraceEvent{time, kind, core, std::string(label), a, b});
}

std::vector<std::size_t> pair_records(const std::vector<TraceEvent>& events) {
  std::vector<std::size_t> partner(events.size(), kNoPartner);
  const auto link = [&](std::size_t open, std::size_t close) {
    partner[open] = close;
    partner[close] = open;
  };
  std::unordered_map<std::uint64_t, std::size_t> tasks;  // a -> start
  std::vector<std::size_t> blocks;                        // core -> start
  std::unordered_map<std::uint64_t, std::deque<std::size_t>> msgs;
  std::deque<std::size_t> dmas;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    switch (ev.kind) {
      case TraceKind::kTaskStart:
        tasks[ev.a] = i;
        break;
      case TraceKind::kTaskEnd:
        if (const auto it = tasks.find(ev.a); it != tasks.end()) {
          link(it->second, i);
          tasks.erase(it);
        }
        break;
      case TraceKind::kComputeStart:
        if (!ev.core.is_valid()) break;
        if (ev.core.index() >= blocks.size())
          blocks.resize(ev.core.index() + 1, kNoPartner);
        blocks[ev.core.index()] = i;
        break;
      case TraceKind::kComputeEnd: {
        if (!ev.core.is_valid() || ev.core.index() >= blocks.size()) break;
        std::size_t& open = blocks[ev.core.index()];
        if (open == kNoPartner || events[open].label != ev.label) break;
        link(open, i);
        open = kNoPartner;
        break;
      }
      case TraceKind::kMsgSend:
        msgs[ev.a].push_back(i);
        break;
      case TraceKind::kMsgRecv:
        if (const auto it = msgs.find(ev.a);
            it != msgs.end() && !it->second.empty()) {
          link(it->second.front(), i);
          it->second.pop_front();
        }
        break;
      case TraceKind::kDmaStart:
        dmas.push_back(i);
        break;
      case TraceKind::kDmaEnd:
        if (!dmas.empty()) {
          link(dmas.front(), i);
          dmas.pop_front();
        }
        break;
      default:
        break;  // not a span record
    }
  }
  return partner;
}

}  // namespace rw::sim
