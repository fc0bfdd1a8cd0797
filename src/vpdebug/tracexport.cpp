#include "vpdebug/tracexport.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.hpp"

namespace rw::vpdebug {

namespace {

/// The retired compute blocks of cores 0..num_cores-1, one list per core
/// in start-time order, from a single pass over the paired trace.
std::vector<std::vector<ExecutedBlock>> blocks_by_core(
    const std::vector<sim::TraceEvent>& trace, std::size_t num_cores) {
  std::vector<std::vector<ExecutedBlock>> out(num_cores);
  const std::vector<std::size_t> partner = sim::pair_records(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const sim::TraceEvent& ev = trace[i];
    if (ev.kind == sim::TraceKind::kComputeEnd &&
        partner[i] != sim::kNoPartner && ev.core.index() < num_cores)
      out[ev.core.index()].push_back(
          ExecutedBlock{ev.label, trace[partner[i]].time, ev.time});
  }
  for (auto& blocks : out)
    std::sort(blocks.begin(), blocks.end(),
              [](const ExecutedBlock& a, const ExecutedBlock& b) {
                return a.start < b.start;
              });
  return out;
}

}  // namespace

std::vector<ExecutedBlock> function_history(
    const std::vector<sim::TraceEvent>& trace, sim::CoreId core) {
  if (!core.is_valid()) return {};
  return std::move(blocks_by_core(trace, core.index() + 1).back());
}

std::string render_gantt(const std::vector<sim::TraceEvent>& trace,
                         std::size_t num_cores, TimePs t0, TimePs t1,
                         std::size_t width) {
  if (t1 <= t0 || width == 0) return "";
  // Stable legend: label -> letter, in first-appearance order.
  std::map<std::string, char> legend;
  auto letter_for = [&](const std::string& label) {
    auto it = legend.find(label);
    if (it != legend.end()) return it->second;
    const char c = static_cast<char>('a' + (legend.size() % 26));
    legend.emplace(label, c);
    return c;
  };

  const auto per_core = blocks_by_core(trace, num_cores);
  std::string out;
  for (std::size_t c = 0; c < num_cores; ++c) {
    std::string row(width, '.');
    for (const auto& blk : per_core[c]) {
      if (blk.end <= t0 || blk.start >= t1) continue;
      const TimePs s = std::max(blk.start, t0);
      const TimePs e = std::min(blk.end, t1);
      const auto from = static_cast<std::size_t>(
          (s - t0) * width / (t1 - t0));
      auto to = static_cast<std::size_t>((e - t0) * width / (t1 - t0));
      to = std::max(to, from + 1);
      const char ch = letter_for(blk.label);
      for (std::size_t i = from; i < std::min(to, width); ++i) row[i] = ch;
    }
    out += strformat("core%-2zu |%s|\n", c, row.c_str());
  }
  out += "legend:";
  for (const auto& [label, ch] : legend)
    out += strformat(" %c=%s", ch, label.c_str());
  out += "\n";
  return out;
}

std::string export_vcd(const std::vector<sim::TraceEvent>& trace,
                       std::size_t num_cores) {
  // Which IRQ lines ever appear?
  std::set<std::uint64_t> irq_lines;
  for (const auto& ev : trace)
    if (ev.kind == sim::TraceKind::kIrqRaise ||
        ev.kind == sim::TraceKind::kIrqAck)
      irq_lines.insert(ev.a);

  std::string vcd;
  vcd += "$timescale 1ps $end\n$scope module platform $end\n";
  auto core_id = [](std::size_t c) {
    return strformat("b%zu", c);
  };
  auto irq_id = [](std::uint64_t l) {
    return strformat("q%llu", static_cast<unsigned long long>(l));
  };
  for (std::size_t c = 0; c < num_cores; ++c)
    vcd += strformat("$var wire 1 %s core%zu_busy $end\n",
                     core_id(c).c_str(), c);
  for (const auto l : irq_lines)
    vcd += strformat("$var wire 1 %s irq%llu $end\n", irq_id(l).c_str(),
                     static_cast<unsigned long long>(l));
  vcd += "$upscope $end\n$enddefinitions $end\n";

  // Initial values.
  vcd += "#0\n";
  for (std::size_t c = 0; c < num_cores; ++c)
    vcd += strformat("0%s\n", core_id(c).c_str());
  for (const auto l : irq_lines)
    vcd += strformat("0%s\n", irq_id(l).c_str());

  TimePs last_time = 0;  // "#0" is open
  auto at_time = [&](TimePs t) {
    if (t == last_time) return;
    vcd += strformat("#%llu\n", static_cast<unsigned long long>(t));
    last_time = t;
  };

  // A core's wire rises at a paired ComputeStart and falls at its partner.
  const std::vector<std::size_t> partner = sim::pair_records(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const sim::TraceEvent& ev = trace[i];
    switch (ev.kind) {
      case sim::TraceKind::kComputeStart:
      case sim::TraceKind::kComputeEnd:
        if (partner[i] == sim::kNoPartner || ev.core.index() >= num_cores)
          break;
        at_time(ev.time);
        vcd += strformat(
            "%c%s\n", ev.kind == sim::TraceKind::kComputeStart ? '1' : '0',
            core_id(ev.core.index()).c_str());
        break;
      case sim::TraceKind::kIrqRaise:
        at_time(ev.time);
        vcd += strformat("1%s\n", irq_id(ev.a).c_str());
        break;
      case sim::TraceKind::kIrqAck:
        at_time(ev.time);
        vcd += strformat("0%s\n", irq_id(ev.a).c_str());
        break;
      default:
        break;
    }
  }
  return vcd;
}

}  // namespace rw::vpdebug
