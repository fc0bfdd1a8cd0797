// Adapters: the pre-existing one-off report structs, re-spoken as
// Diagnostics.
//
// dataflow::DeadlockReport (design-time, Sec. III/VII) and recoder's
// shared-access ArrayReport (Sec. VI) predate the lint framework and each
// carried its own shape. These converters let every producer emit the one
// Diagnostic format.
#pragma once

#include <string>
#include <vector>

#include "dataflow/deadlock.hpp"
#include "lint/diagnostic.hpp"
#include "recoder/shared_report.hpp"

namespace rw::lint {

/// One diagnostic per blocked actor; empty when not deadlocked.
std::vector<Diagnostic> from_deadlock_report(
    const dataflow::DeadlockReport& rep, std::string unit,
    std::string pass = "static-deadlock");

/// The recoder's shared-data access report: keep-shared verdicts become
/// warnings (real synchronization needed), everything else notes.
std::vector<Diagnostic> from_shared_report(
    const std::vector<recoder::ArrayReport>& reports, std::string unit,
    const std::string& function);

}  // namespace rw::lint
