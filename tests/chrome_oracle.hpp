// The reference Chrome exporter for the byte-identity tests
// (test_perf_chrome_oracle.cpp): perf::to_chrome_trace as it was written
// on json::Writer, one key() and value() call per field, with every
// timestamp a double(ps) * 1e-6 through Writer::value(double). The
// product exporter appends the same bytes directly; this twin is the
// specification it is checked against.
#pragma once

#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace rw::perf::oracle {

/// Chrome trace-event JSON through json::Writer: the bytes
/// perf::to_chrome_trace must write for `trace`.
std::string to_chrome_trace(const std::vector<sim::TraceEvent>& trace);

}  // namespace rw::perf::oracle
