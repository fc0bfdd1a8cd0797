#include "lint/driver.hpp"

#include <fstream>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace rw::lint {
namespace {

// Pass lists accept commas or whitespace as separators, so both
// `--passes a,b` and the shell-friendly `--passes "a b"` work.
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

Result<DriverOptions> parse_driver_args(
    const std::vector<std::string>& args) {
  DriverOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (RW_TRY(cli::parse_common_flag(args, i, opts))) {
      continue;
    } else if (a.rfind("--passes=", 0) == 0) {
      for (auto& p : split_list(a.substr(9))) opts.passes.insert(p);
    } else if (a == "--passes") {
      if (i + 1 >= args.size())
        return make_error(
            "--passes needs a comma- or space-separated pass list");
      for (auto& p : split_list(args[++i])) opts.passes.insert(p);
    } else if (a == "--help" || a == "-h") {
      return make_error(std::string("usage: rwlint ") + cli::common_usage() +
                        " [--passes a,b] [program...]");
    } else if (!a.empty() && a[0] == '-') {
      return make_error("unknown option: " + a);
    } else {
      opts.programs.push_back(a);
    }
  }
  return opts;
}

std::string driver_json(const std::vector<ProgramOutcome>& outcomes) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-lint-run-1");
  // The pass registry, in canonical order, so envelope consumers can
  // tell "pass did not run" from "pass does not exist".
  const PassManager registry = PassManager::with_default_passes();
  w.key("passes").begin_array();
  for (const auto& p : registry.passes()) w.value(std::string(p->name()));
  w.end_array();
  std::size_t errors = 0;
  for (const auto& o : outcomes) errors += o.result.errors();
  w.key("errors").value(static_cast<std::uint64_t>(errors));
  w.key("programs").begin_array();
  for (const auto& o : outcomes)
    diagnostics_to_json(w, o.program, o.result.diagnostics);
  w.end_array();
  w.end_object();
  return w.str();
}

DriverReport run_driver(const DriverOptions& opts, std::ostream& out) {
  DriverReport report;
  const auto corpus = build_corpus();

  if (opts.list) {
    Table t({"program", "runnable", "expected", "summary"});
    for (const auto& p : corpus) {
      std::string kinds;
      for (const auto& k : p.expected_kinds) {
        if (!kinds.empty()) kinds += ",";
        kinds += k;
      }
      if (kinds.empty()) kinds = "-";
      t.add_row({p.name, p.runnable() ? "yes" : "no", kinds, p.summary});
    }
    out << t.to_string();
    Table passes({"pass", "description"});
    const PassManager registry = PassManager::with_default_passes();
    for (const auto& p : registry.passes())
      passes.add_row({std::string(p->name()), std::string(p->description())});
    out << passes.to_string();
    return report;
  }

  // Resolve the program selection against the corpus.
  std::vector<const CorpusProgram*> selected;
  if (opts.programs.empty()) {
    for (const auto& p : corpus) selected.push_back(&p);
  } else {
    for (const auto& name : opts.programs) {
      const CorpusProgram* found = nullptr;
      for (const auto& p : corpus)
        if (p.name == name) found = &p;
      if (found == nullptr) {
        out << "rwlint: unknown program: " << name << "\n";
        report.exit_code = 2;
        return report;
      }
      selected.push_back(found);
    }
  }

  PassManager pm = PassManager::with_default_passes();
  if (!opts.passes.empty()) {
    for (const auto& name : opts.passes) {
      if (pm.find(name) == nullptr) {
        out << "rwlint: unknown pass: " << name << "\n";
        report.exit_code = 2;
        return report;
      }
    }
    pm.enable_only(opts.passes);
  }

  for (const CorpusProgram* p : selected) {
    ProgramOutcome outcome;
    outcome.program = p->name;
    outcome.result = pm.run(p->target());

    if (opts.write_files) {
      outcome.json_path = opts.out_dir + "/LINT_" + p->name + ".json";
      std::ofstream f(outcome.json_path);
      f << outcome.result.to_json() << "\n";
    }

    if (!opts.json_stdout) {
      Table t({"severity", "pass", "kind", "entity", "message"});
      for (const auto& d : outcome.result.diagnostics)
        t.add_row({severity_name(d.severity), d.pass, d.kind,
                   d.location.entity, d.message});
      out << "== " << p->name << " ==\n";
      if (t.row_count() > 0) out << t.to_string();
      out << strformat("%zu error(s), %zu warning(s)",
                       outcome.result.errors(), outcome.result.warnings());
      // Per-pass wall time is host timing: table output only, never in
      // any JSON document (those are byte-identical across runs).
      std::string ran;
      for (const auto& s : outcome.result.stats)
        if (s.ran)
          ran += (ran.empty() ? "" : ", ") + s.pass +
                 strformat(" %.2fms",
                           static_cast<double>(s.wall_ns) / 1e6);
      out << "  [passes: " << (ran.empty() ? "none" : ran) << "]\n";
      if (!outcome.json_path.empty())
        out << "wrote " << outcome.json_path << "\n";
      out << "\n";
    }

    if (outcome.result.errors() > 0) report.exit_code = 1;
    report.outcomes.push_back(std::move(outcome));
  }

  if (opts.json_stdout)
    out << cli::envelope("rwlint", opts.seed, driver_json(report.outcomes))
        << "\n";
  return report;
}

}  // namespace rw::lint
