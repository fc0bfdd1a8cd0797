#include "perf/driver.hpp"

#include <memory>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "perf/export.hpp"
#include "perf/governor.hpp"
#include "perf/workload.hpp"
#include "vpdebug/tracexport.hpp"

namespace rw::perf {

Result<ProfOptions> parse_prof_args(const std::vector<std::string>& args) {
  ProfOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (RW_TRY(cli::parse_common_flag(args, i, opts))) {
      continue;
    } else if (a == "--governor") {
      opts.governor = true;
    } else if (a == "--mesh") {
      opts.mesh = true;
    } else if (a == "--cores") {
      opts.cores = static_cast<std::size_t>(RW_TRY(cli::arg_u64(args, i, a)));
      if (opts.cores == 0) return make_error("--cores must be >= 1");
    } else if (a == "--scale") {
      opts.scale = RW_TRY(cli::arg_u64(args, i, a));
      if (opts.scale == 0) return make_error("--scale must be >= 1");
    } else if (a == "--period-us") {
      opts.period = RW_TRY(cli::arg_us(args, i, a));
      if (opts.period == 0) return make_error("--period-us must be >= 1");
    } else if (a == "--epoch-us") {
      opts.epoch = RW_TRY(cli::arg_us(args, i, a));
      if (opts.epoch == 0) return make_error("--epoch-us must be >= 1");
    } else if (a == "--help" || a == "-h") {
      return make_error(std::string("usage: rwprof ") + cli::common_usage() +
                        " [--governor] [--mesh] [--cores N] [--scale K]"
                        " [--period-us U] [--epoch-us U] [workload...]");
    } else if (!a.empty() && a[0] == '-') {
      return make_error("unknown option: " + a);
    } else {
      if (!is_workload(a)) return make_error("unknown workload: " + a);
      opts.workloads.push_back(a);
    }
  }
  return opts;
}

namespace {

std::unique_ptr<sim::Platform> build_platform(const ProfOptions& opts) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(opts.cores);
  cfg.trace_enabled = true;
  if (opts.mesh) cfg.use_square_mesh();
  return std::make_unique<sim::Platform>(std::move(cfg));
}

void print_outcome(const ProfOptions& opts, const WorkloadOutcome& oc,
                   std::ostream& out) {
  const PerfReport& r = oc.report;
  out << strformat("== %s: makespan %.3f us, mean utilization %.1f%%",
                   oc.workload.c_str(),
                   static_cast<double>(r.makespan) * 1e-6,
                   r.mean_utilization() * 100.0);
  if (opts.governor)
    out << strformat(", %llu DVFS transitions",
                     static_cast<unsigned long long>(
                         oc.governor_transitions));
  out << "\n\n";

  Table t({"core", "busy_cyc", "stall_cyc", "instr", "mem_rd", "mem_wr",
           "local", "shared", "util"});
  for (std::size_t i = 0; i < r.pmu.cores.size(); ++i) {
    const CoreCounters& c = r.pmu.cores[i];
    t.add_row({strformat("%zu", i), Table::num(c.busy_cycles),
               Table::num(c.stall_cycles),
               Table::num(c.approx_instructions()), Table::num(c.mem_reads),
               Table::num(c.mem_writes), Table::num(c.local_accesses),
               Table::num(c.shared_accesses),
               Table::percent(c.utilization(r.makespan))});
  }
  out << t.to_string() << "\n";
  out << strformat(
      "icn: %llu transfers, %llu bytes, wait %.3f us | dma: %llu "
      "transfers, %llu bytes\n",
      static_cast<unsigned long long>(r.pmu.icn.transfers),
      static_cast<unsigned long long>(r.pmu.icn.bytes),
      static_cast<double>(r.pmu.icn.wait_ps) * 1e-6,
      static_cast<unsigned long long>(r.pmu.dma.transfers),
      static_cast<unsigned long long>(r.pmu.dma.bytes));
  if (r.profiler_ticks > 0) {
    Table p({"core", "label", "samples", "share"});
    for (const auto& e : r.profile.entries)
      p.add_row({strformat("%zu", e.core), e.label, Table::num(e.samples),
                 Table::percent(r.profile.busy_samples == 0
                                    ? 0.0
                                    : static_cast<double>(e.samples) /
                                          static_cast<double>(
                                              r.profile.busy_samples))});
    out << "\nprofile (" << r.profile.total_samples << " samples, "
        << r.profile.idle_samples << " idle):\n"
        << p.to_string();
  }
  if (!oc.json_path.empty()) out << "\nwrote " << oc.json_path << "\n";
  out << "\n";
}

}  // namespace

std::string prof_json(const std::vector<WorkloadOutcome>& outcomes) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-perf-run-1");
  w.key("workloads").begin_array();
  for (const auto& oc : outcomes) {
    w.begin_object();
    w.key("workload").value(oc.workload);
    w.key("governor_transitions").value(oc.governor_transitions);
    w.key("report");
    write_report(w, oc.report);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

ProfReport run_prof(const ProfOptions& opts, std::ostream& out) {
  ProfReport rep;
  if (opts.list) {
    for (const auto& wl : workload_registry())
      out << wl.name << "  " << wl.description << "\n";
    return rep;
  }

  std::vector<std::string> names = opts.workloads;
  if (names.empty())
    for (const auto& wl : workload_registry()) names.push_back(wl.name);

  for (const auto& name : names) {
    auto platform = build_platform(opts);
    PerfConfig pcfg;
    pcfg.profiler.period = opts.period;
    pcfg.epoch_width = opts.epoch;
    PerfSession session(*platform, pcfg);
    std::unique_ptr<PmuGovernor> gov;
    if (opts.governor) {
      gov = std::make_unique<PmuGovernor>(*platform, session.pmu(),
                                          GovernorConfig{});
      gov->start();
    }
    spawn_workload(name, *platform, opts.seed, opts.scale);
    platform->run();

    WorkloadOutcome oc;
    oc.workload = name;
    oc.report = session.report();
    if (gov) oc.governor_transitions = gov->transitions();

    if (opts.write_files) {
      const std::string base = opts.out_dir + "/PERF_" + name;
      oc.json_path = base + ".json";
      bool ok = cli::write_text(oc.json_path, to_json(oc.report));
      ok = cli::write_text(base + ".trace.json",
                           to_chrome_trace(platform->tracer().events())) &&
           ok;
      ok = cli::write_text(base + ".vcd",
                           vpdebug::export_vcd(platform->tracer().events(),
                                               platform->core_count())) &&
           ok;
      ok = cli::write_text(base + ".folded",
                           to_folded_stacks(oc.report.profile)) &&
           ok;
      ok = cli::write_text(base + ".csv",
                           to_csv(oc.report.epochs, oc.report.num_cores)) &&
           ok;
      if (!ok) {
        out << "error: failed writing exports for " << name << "\n";
        rep.exit_code = 1;
      }
    }
    rep.outcomes.push_back(std::move(oc));
  }

  if (opts.json_stdout) {
    out << cli::envelope("rwprof", opts.seed, prof_json(rep.outcomes)) << "\n";
  } else {
    for (const auto& oc : rep.outcomes) print_outcome(opts, oc, out);
  }
  return rep;
}

}  // namespace rw::perf
