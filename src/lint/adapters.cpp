#include "lint/adapters.hpp"

#include "common/strings.hpp"

namespace rw::lint {

std::vector<Diagnostic> from_deadlock_report(
    const dataflow::DeadlockReport& rep, std::string unit,
    std::string pass) {
  std::vector<Diagnostic> out;
  if (!rep.deadlocked) return out;
  for (const auto& b : rep.blocked) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.subsystem = "dataflow";
    d.pass = pass;
    d.kind = "deadlock";
    d.location = {unit, b.actor_name};
    d.message = strformat(
        "actor '%s' never completes its repetition quota: starved on "
        "'%s' (%llu of %llu tokens)",
        b.actor_name.c_str(), b.edge_name.c_str(),
        static_cast<unsigned long long>(b.tokens_present),
        static_cast<unsigned long long>(b.tokens_needed));
    d.with_evidence("starved_edge", b.edge_name)
        .with_evidence("tokens_present",
                       strformat("%llu", static_cast<unsigned long long>(
                                             b.tokens_present)))
        .with_evidence("tokens_needed",
                       strformat("%llu", static_cast<unsigned long long>(
                                             b.tokens_needed)));
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<Diagnostic> from_shared_report(
    const std::vector<recoder::ArrayReport>& reports, std::string unit,
    const std::string& function) {
  std::vector<Diagnostic> out;
  for (const auto& r : reports) {
    Diagnostic d;
    d.severity = r.recommendation == recoder::Recommendation::kKeepShared
                     ? Severity::kWarning
                     : Severity::kNote;
    d.subsystem = "recoder";
    d.pass = "shared-access";
    d.kind = "shared-access";
    d.location = {unit, r.array};
    d.message = strformat(
        "array '%s[%lld]' in '%s': %s (%zu access site%s)",
        r.array.c_str(), static_cast<long long>(r.size), function.c_str(),
        recoder::recommendation_name(r.recommendation), r.sites.size(),
        r.sites.size() == 1 ? "" : "s");
    d.with_evidence("recommendation",
                    recoder::recommendation_name(r.recommendation))
        .with_evidence("function", function)
        .with_evidence("sites", strformat("%zu", r.sites.size()));
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace rw::lint
