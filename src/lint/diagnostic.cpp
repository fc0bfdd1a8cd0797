#include "lint/diagnostic.hpp"

#include <algorithm>
#include <tuple>


namespace rw::lint {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

void Diagnostic::to_json(json::Writer& w) const {
  w.begin_object();
  w.key("severity").value(severity_name(severity));
  w.key("subsystem").value(subsystem);
  w.key("pass").value(pass);
  w.key("kind").value(kind);
  w.key("unit").value(location.unit);
  w.key("entity").value(location.entity);
  w.key("message").value(message);
  w.key("evidence").begin_object();
  for (const auto& [k, v] : evidence) w.key(k).value(v);
  w.end_object();
  w.end_object();
}

bool diagnostic_less(const Diagnostic& a, const Diagnostic& b) {
  // Errors sort first; within a severity the order is purely lexical.
  if (a.severity != b.severity)
    return static_cast<int>(a.severity) > static_cast<int>(b.severity);
  return std::tie(a.subsystem, a.kind, a.location.unit, a.location.entity,
                  a.message, a.pass) <
         std::tie(b.subsystem, b.kind, b.location.unit, b.location.entity,
                  b.message, b.pass);
}

void sort_diagnostics(std::vector<Diagnostic>& diags) {
  std::stable_sort(diags.begin(), diags.end(), diagnostic_less);
}

std::size_t count_severity(const std::vector<Diagnostic>& diags,
                           Severity s) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

void dedupe_diagnostics(std::vector<Diagnostic>& diags) {
  std::vector<Diagnostic> out;
  out.reserve(diags.size());
  for (auto& d : diags) {
    const bool dup = std::any_of(
        out.begin(), out.end(), [&](const Diagnostic& kept) {
          return kept.kind == d.kind &&
                 kept.location.unit == d.location.unit &&
                 kept.location.entity == d.location.entity &&
                 kept.evidence == d.evidence;
        });
    if (!dup) out.push_back(std::move(d));
  }
  diags = std::move(out);
}

void diagnostics_to_json(json::Writer& w, const std::string& program,
                         const std::vector<Diagnostic>& diags) {
  w.begin_object();
  w.key("schema").value("rw-lint-1");
  w.key("program").value(program);
  w.key("errors").value(
      static_cast<std::uint64_t>(count_severity(diags, Severity::kError)));
  w.key("warnings").value(
      static_cast<std::uint64_t>(count_severity(diags, Severity::kWarning)));
  w.key("notes").value(
      static_cast<std::uint64_t>(count_severity(diags, Severity::kNote)));
  w.key("diagnostics").begin_array();
  for (const auto& d : diags) d.to_json(w);
  w.end_array();
  w.end_object();
}

std::string diagnostics_to_json(const std::string& program,
                                const std::vector<Diagnostic>& diags) {
  json::Writer w;
  diagnostics_to_json(w, program, diags);
  return w.str();
}

}  // namespace rw::lint
