#include "perf/traceview.hpp"

#include <algorithm>

namespace rw::perf {

TraceView TraceView::from_events(const std::vector<sim::TraceEvent>& events) {
  TraceView v;
  v.total_events_ = events.size();
  const std::vector<std::size_t> partner = sim::pair_records(events);

  for (std::size_t i = 0; i < events.size(); ++i) {
    if (partner[i] == sim::kNoPartner) continue;
    const sim::TraceEvent& ev = events[i];
    const sim::TraceEvent& end = events[partner[i]];
    switch (ev.kind) {
      case sim::TraceKind::kTaskStart:
      case sim::TraceKind::kComputeStart: {
        ComputeSpan s;
        s.seq = i;
        s.core = ev.core;
        s.label = ev.label;
        if (ev.kind == sim::TraceKind::kTaskStart) {
          s.task = ev.a;
          s.cycles = ev.b;
          s.ref_cycles = end.b;
        } else {
          s.cycles = ev.a;
        }
        s.start = ev.time;
        s.finish = end.time;
        v.computes_.push_back(std::move(s));
        break;
      }
      case sim::TraceKind::kMsgSend: {
        TransferSpan s;
        s.seq = i;
        s.src_core = ev.core;
        s.dst_core = end.core;
        s.label = ev.label;
        s.src_task = ev.a >> 32;
        s.dst_task = ev.a & 0xffffffffULL;
        s.bytes = ev.b;
        s.start = ev.time;
        s.finish = end.time;
        v.transfers_.push_back(std::move(s));
        break;
      }
      case sim::TraceKind::kDmaStart:
        v.dmas_.push_back(DmaSpan{i, ev.b, ev.time, end.time});
        break;
      default:
        continue;  // a closing record: its span was built at the opening one
    }
    v.makespan_ = std::max(v.makespan_, end.time);
  }
  return v;
}

}  // namespace rw::perf
