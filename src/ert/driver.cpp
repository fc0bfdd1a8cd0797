#include "ert/driver.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "ert/templates.hpp"
#include "perf/export.hpp"

namespace rw::ert {
namespace {

bool known_template(const std::string& name) {
  const auto names = template_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

void write_tenant(json::Writer& w, const TenantStats& s) {
  w.begin_object();
  w.key("tenant").value(s.name);
  w.key("submitted").value(s.submitted);
  w.key("completed").value(s.completed);
  w.key("rejected").value(s.rejected);
  w.key("deadline_misses").value(s.deadline_misses);
  w.key("peak_cores").value(static_cast<std::uint64_t>(s.peak_cores));
  w.key("core_ps").value(s.core_ps);
  w.key("p50_latency_ps").value(s.percentile(50.0));
  w.key("p99_latency_ps").value(s.percentile(99.0));
  w.key("mean_latency_us").value(s.mean_latency_us());
  w.key("fingerprint").value(
      strformat("%016llx", static_cast<unsigned long long>(s.fingerprint)));
  w.end_object();
}

}  // namespace

Result<ErtOptions> parse_ert_args(const std::vector<std::string>& args) {
  ErtOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (RW_TRY(cli::parse_common_flag(args, i, opts))) {
      continue;
    } else if (a == "--cores") {
      opts.cores = static_cast<std::size_t>(RW_TRY(cli::arg_u64(args, i, a)));
      if (opts.cores == 0) return make_error("--cores must be >= 1");
    } else if (a == "--tenants") {
      opts.tenants =
          static_cast<std::size_t>(RW_TRY(cli::arg_u64(args, i, a)));
      if (opts.tenants == 0) return make_error("--tenants must be >= 1");
    } else if (a == "--jobs") {
      opts.jobs = RW_TRY(cli::arg_u64(args, i, a));
      if (opts.jobs == 0) return make_error("--jobs must be >= 1");
    } else if (a == "--scale") {
      opts.scale = RW_TRY(cli::arg_u64(args, i, a));
      if (opts.scale == 0) return make_error("--scale must be >= 1");
    } else if (a == "--reserved") {
      opts.reserved =
          static_cast<std::size_t>(RW_TRY(cli::arg_u64(args, i, a)));
    } else if (a == "--gap-us") {
      opts.mean_gap_us = RW_TRY(cli::arg_u64(args, i, a));
      if (opts.mean_gap_us == 0) return make_error("--gap-us must be >= 1");
    } else if (a == "--help" || a == "-h") {
      return make_error(std::string("usage: rwert ") + cli::common_usage() +
                        " [--cores N] [--tenants N] [--jobs J] [--scale K]"
                        " [--reserved R] [--gap-us G] [template...]");
    } else if (!a.empty() && a[0] == '-') {
      return make_error("unknown option: " + a);
    } else {
      if (!known_template(a)) return make_error("unknown job template: " + a);
      opts.templates.push_back(a);
    }
  }
  if (opts.reserved > opts.tenants)
    return make_error("--reserved must be <= --tenants");
  return opts;
}

std::string ert_json(const ErtOptions& opts,
                     const std::vector<TenantStats>& tenants) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-ert-run-1");
  w.key("config");
  w.begin_object();
  w.key("cores").value(static_cast<std::uint64_t>(opts.cores));
  w.key("tenants").value(static_cast<std::uint64_t>(opts.tenants));
  w.key("jobs_per_tenant").value(opts.jobs);
  w.key("scale").value(opts.scale);
  w.key("reserved").value(static_cast<std::uint64_t>(opts.reserved));
  w.key("mean_gap_us").value(opts.mean_gap_us);
  w.key("seed").value(opts.seed);
  w.key("templates").begin_array();
  const auto templates =
      opts.templates.empty() ? template_names() : opts.templates;
  for (const std::string& t : templates) w.value(t);
  w.end_array();
  w.end_object();
  w.key("tenants").begin_array();
  for (const TenantStats& s : tenants) write_tenant(w, s);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

ErtReport run_ert(const ErtOptions& opts, std::ostream& out) {
  ErtReport rep;
  if (opts.list) {
    Table t({"template", "tasks", "edges", "qos", "deadline_us",
             "crit_path_kcycles"});
    for (const std::string& name : template_names()) {
      const JobSpec spec = make_template(name, opts.scale);
      t.add_row({name, Table::num(spec.graph.tasks().size()),
                 Table::num(spec.graph.edges().size()), qos_name(spec.qos),
                 strformat("%.1f", static_cast<double>(spec.deadline) * 1e-6),
                 Table::num(spec.graph.critical_path_cycles() / 1000)});
    }
    out << t.to_string();
    return rep;
  }

  ServiceConfig cfg;
  cfg.total_cores = opts.cores;
  Service service(cfg);

  const auto templates =
      opts.templates.empty() ? template_names() : opts.templates;
  const double share = 1.0 / static_cast<double>(opts.tenants);

  std::vector<Session> sessions;
  for (std::size_t t = 0; t < opts.tenants; ++t) {
    TenantConfig tc;
    tc.name = strformat("t%zu", t);
    tc.share = share;
    tc.reserved = t < opts.reserved;
    auto session = service.open_session(tc);
    if (!session.ok()) {
      out << "rwert: " << session.error().to_string() << "\n";
      rep.exit_code = 2;
      return rep;
    }
    sessions.push_back(session.value());
  }

  // Seeded open-loop arrivals: each tenant gets its own stream so the
  // workload of tenant i is independent of how many tenants run beside it.
  std::vector<JobHandle> handles;
  for (std::size_t t = 0; t < opts.tenants; ++t) {
    Rng rng(opts.seed * 0x9e3779b97f4a7c15ULL + t);
    TimePs arrival = 0;
    for (std::uint64_t j = 0; j < opts.jobs; ++j) {
      arrival += static_cast<DurationPs>(rng.next_exponential(
          static_cast<double>(microseconds(opts.mean_gap_us))));
      JobSpec spec = make_template(
          templates[static_cast<std::size_t>(j) % templates.size()],
          opts.scale);
      spec.arrival = arrival;
      handles.push_back(sessions[t].submit(std::move(spec)));
    }
  }
  for (const JobHandle& h : handles) (void)h.result();

  rep.tenants = service.all_tenant_stats();
  for (const TenantStats& s : rep.tenants) {
    rep.completed += s.completed;
    rep.rejected += s.rejected;
  }

  if (opts.write_files) {
    rep.json_path = opts.out_dir + "/ERT_service.json";
    if (!cli::write_text(rep.json_path, ert_json(opts, rep.tenants))) {
      out << "rwert: error: failed writing " << rep.json_path << "\n";
      rep.exit_code = 1;
    }
    rep.trace_path = opts.out_dir + "/ERT_trace.json";
    if (!cli::write_text(rep.trace_path,
                          perf::to_chrome_trace(service.trace()))) {
      out << "rwert: error: failed writing " << rep.trace_path << "\n";
      rep.exit_code = 1;
    }
  }

  if (opts.json_stdout) {
    out << cli::envelope("rwert", opts.seed, ert_json(opts, rep.tenants))
        << "\n";
    return rep;
  }

  out << strformat(
      "== rwert service: %zu cores, %zu tenants (%zu reserved), "
      "%llu jobs/tenant, seed %llu\n\n",
      opts.cores, opts.tenants, opts.reserved,
      static_cast<unsigned long long>(opts.jobs),
      static_cast<unsigned long long>(opts.seed));
  Table t({"tenant", "sub", "done", "rej", "miss", "p50_us", "p99_us",
           "mean_us", "peak", "fingerprint"});
  for (const TenantStats& s : rep.tenants) {
    t.add_row(
        {s.name, Table::num(s.submitted), Table::num(s.completed),
         Table::num(s.rejected), Table::num(s.deadline_misses),
         strformat("%.2f", static_cast<double>(s.percentile(50.0)) * 1e-6),
         strformat("%.2f", static_cast<double>(s.percentile(99.0)) * 1e-6),
         strformat("%.2f", s.mean_latency_us()), Table::num(s.peak_cores),
         strformat("%016llx",
                   static_cast<unsigned long long>(s.fingerprint))});
  }
  out << t.to_string();
  if (!rep.json_path.empty()) out << "\nwrote " << rep.json_path;
  if (!rep.trace_path.empty()) out << "\nwrote " << rep.trace_path;
  out << "\n";
  return rep;
}

}  // namespace rw::ert
