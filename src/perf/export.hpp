// Deterministic exporters for perf data.
//
// Three interchange formats, all pure functions of the report so repeated
// runs produce byte-identical files:
//   * Chrome trace-event JSON ("X" complete events) — load in a
//     chrome://tracing / Perfetto timeline;
//   * folded stacks ("core0;label count" lines) — pipe to flamegraph.pl;
//   * CSV — one row per epoch, the counter time-series for spreadsheets.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "perf/metrics.hpp"
#include "perf/profiler.hpp"
#include "sim/trace.hpp"

namespace rw::perf {

struct PerfReport;  // session.hpp

/// Chrome trace-event JSON: one "X" event per compute block that
/// sim::pair_records pairs, at its end record (pid 0, tid = core index,
/// timestamps in microseconds). Blocks that never retired are not drawn.
/// The document is appended in one pass, constant bytes as literals and
/// only labels escaped; its bytes are those json::Writer writes for the
/// same fields, with each time as append_ps_as_us writes it.
std::string to_chrome_trace(const std::vector<sim::TraceEvent>& trace);

/// Append `ps` picoseconds as Chrome's microseconds, in the bytes of
/// json::Writer::value(double(ps) * 1e-6): %.15g of ps * 1e-6 when that
/// reads back, else %.17g. From 100 ps up to 15 digits, the exact decimal
/// ps / 1e6 is written from the integer when the product is the
/// correctly rounded quotient (then it is the %.15g form); otherwise that
/// range writes %.17g of the product with integer arithmetic (its 53-bit
/// mantissa times a power of ten in 128 bits, correctly rounded), and the
/// rest goes through the Writer.
void append_ps_as_us(std::string& out, TimePs ps);

/// Folded-stack lines "core<i>;<label> <samples>", (core,label) ordered.
std::string to_folded_stacks(const SamplingProfiler::Profile& profile);

/// Counter time-series CSV: one row per epoch, totals plus per-core
/// utilization columns.
std::string to_csv(const std::vector<Epoch>& epochs, std::size_t num_cores);

/// Full report as JSON (counter table + profile + epoch summaries).
std::string to_json(const PerfReport& report);

/// Emit the report object into an in-progress JSON document (the driver
/// embeds reports in its combined doc; to_json wraps this).
void write_report(json::Writer& w, const PerfReport& report);

}  // namespace rw::perf
