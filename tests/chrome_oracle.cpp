#include "chrome_oracle.hpp"

#include "common/json.hpp"

namespace rw::perf::oracle {

std::string to_chrome_trace(const std::vector<sim::TraceEvent>& trace) {
  json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  // One "X" complete event per paired ComputeEnd, in trace order.
  const std::vector<std::size_t> partner = sim::pair_records(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const sim::TraceEvent& ev = trace[i];
    if (ev.kind != sim::TraceKind::kComputeEnd ||
        partner[i] == sim::kNoPartner)
      continue;
    const TimePs start = trace[partner[i]].time;
    w.begin_object();
    w.key("name").value(ev.label);
    w.key("cat").value("compute");
    w.key("ph").value("X");
    // Chrome trace timestamps are microseconds; 1 ps = 1e-6 us.
    w.key("ts").value(static_cast<double>(start) * 1e-6);
    w.key("dur").value(static_cast<double>(ev.time - start) * 1e-6);
    w.key("pid").value(std::uint64_t{0});
    w.key("tid").value(static_cast<std::uint64_t>(ev.core.index()));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace rw::perf::oracle
