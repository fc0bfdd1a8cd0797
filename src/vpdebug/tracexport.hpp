// Trace export and inspection (Sec. VII).
//
// "The hardware and software tracing capabilities address another major
// problem of multi core software development — the ability to keep the
// overview during debugging. A history of function execution within the
// different processes, and their access to memories and peripherals, is
// of great help."
//
// Three consumers of the platform trace:
//   * function_history — per-core list of executed compute blocks,
//   * render_gantt     — ASCII timeline of all cores (the overview),
//   * export_vcd       — IEEE-1364 VCD dump of core-busy and IRQ wires,
//     loadable in any waveform viewer.
// All three read compute blocks as sim::pair_records pairs them, so they
// draw only blocks that retired: a block a crash abandoned, or one still in
// flight when the trace ends, is not drawn. perf::to_chrome_trace draws the
// same blocks.
#pragma once

#include <string>
#include <vector>

#include "sim/platform.hpp"
#include "sim/trace.hpp"

namespace rw::vpdebug {

struct ExecutedBlock {
  std::string label;
  TimePs start = 0;
  TimePs end = 0;
};

/// All compute blocks that retired on `core`, in start-time order.
std::vector<ExecutedBlock> function_history(
    const std::vector<sim::TraceEvent>& trace, sim::CoreId core);

/// ASCII Gantt chart of core activity over [t0, t1], `width` columns.
/// Each core is one row; letters index into the legend of block labels.
std::string render_gantt(const std::vector<sim::TraceEvent>& trace,
                         std::size_t num_cores, TimePs t0, TimePs t1,
                         std::size_t width = 64);

/// Value-change-dump with one wire per core (busy while a retired block
/// runs) and per raised IRQ line. Timescale 1 ps.
std::string export_vcd(const std::vector<sim::TraceEvent>& trace,
                       std::size_t num_cores);

}  // namespace rw::vpdebug
