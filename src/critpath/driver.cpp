#include "critpath/driver.hpp"

#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "maps/mapping.hpp"
#include "maps/partition.hpp"
#include "maps/perf_bounds.hpp"
#include "maps/workloads.hpp"

namespace rw::critpath {

namespace {

constexpr double kErrorBound = 0.10;  // the what-if accuracy contract

sim::PlatformConfig platform_for(const CritOptions& opts, bool hetero) {
  sim::PlatformConfig cfg;
  if (hetero) {
    const std::size_t riscs = (opts.cores + 1) / 2;
    cfg = sim::PlatformConfig::heterogeneous(riscs, opts.cores - riscs);
  } else {
    cfg = sim::PlatformConfig::homogeneous(opts.cores);
  }
  if (opts.mesh) cfg.use_square_mesh();
  return cfg;
}

void write_owners(json::Writer& w, const std::vector<Owner>& owners,
                  std::size_t limit = 8) {
  w.begin_array();
  for (std::size_t i = 0; i < owners.size() && i < limit; ++i) {
    w.begin_object();
    w.key("name").value(owners[i].name);
    w.key("kind").value(seg_kind_name(owners[i].kind));
    w.key("ps").value(owners[i].ps);
    w.key("share").value(owners[i].share);
    w.end_object();
  }
  w.end_array();
}

void write_workload(json::Writer& w, const WorkloadReport& r) {
  w.begin_object();
  w.key("name").value(r.name);
  w.key("observed_ps").value(r.observed);
  w.key("retimed_ps").value(r.retimed);
  w.key("nodes").value(static_cast<std::uint64_t>(r.nodes));
  w.key("dependence_edges").value(static_cast<std::uint64_t>(r.dep_edges));
  w.key("resource_edges").value(static_cast<std::uint64_t>(r.res_edges));
  w.key("trace_events").value(static_cast<std::uint64_t>(r.trace_events));
  w.key("attribution").begin_object();
  w.key("makespan_ps").value(r.attribution.makespan);
  w.key("compute_ps").value(r.attribution.compute_ps);
  w.key("transfer_ps").value(r.attribution.transfer_ps);
  w.key("dma_ps").value(r.attribution.dma_ps);
  w.key("idle_ps").value(r.attribution.idle_ps);
  w.key("path_steps").value(static_cast<std::uint64_t>(r.attribution.path.size()));
  w.key("by_task");
  write_owners(w, r.attribution.by_task);
  w.key("by_channel");
  write_owners(w, r.attribution.by_channel);
  w.key("by_core");
  write_owners(w, r.attribution.by_core);
  w.key("by_link");
  write_owners(w, r.attribution.by_link);
  w.end_object();
  w.key("whatifs").begin_array();
  for (const WhatIfRow& row : r.whatifs) {
    w.begin_object();
    w.key("edit").value(row.edit);
    w.key("predicted_ps").value(row.predicted);
    w.key("resim_ps").value(row.resim);
    w.key("rel_error").value(row.rel_error);
    w.key("speedup").value(row.speedup);
    w.key("ops").value(row.ops);
    w.end_object();
  }
  w.end_array();
  w.key("advice").begin_object();
  w.key("baseline_ps").value(r.advice.baseline_makespan);
  w.key("predicted_ps").value(r.advice.predicted_makespan);
  w.key("resim_ps").value(r.advice.resim_makespan);
  w.key("moves").value(static_cast<std::uint64_t>(r.advice.moves));
  w.key("reverted").value(r.advice.reverted);
  w.key("speedup").value(r.advice.speedup());
  w.key("ops").value(r.advice.ops);
  w.key("comm_fraction").value(r.advice.hints.comm_fraction);
  w.key("gang_cores").value(static_cast<std::uint64_t>(r.advice.hints.gang_cores));
  w.key("preferred_pes").begin_array();
  for (const std::size_t pe : r.advice.hints.preferred_pes)
    w.value(static_cast<std::uint64_t>(pe));
  w.end_array();
  w.key("task_to_pe").begin_array();
  for (const std::size_t pe : r.advice.task_to_pe)
    w.value(static_cast<std::uint64_t>(pe));
  w.end_array();
  w.end_object();
  w.end_object();
}

std::string workload_json(const CritOptions& opts, const WorkloadReport& r) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-critpath-1");
  w.key("cores").value(static_cast<std::uint64_t>(opts.cores));
  w.key("mesh").value(opts.mesh);
  w.key("seed").value(opts.seed);
  w.key("workload");
  write_workload(w, r);
  w.end_object();
  return w.str() + "\n";
}

}  // namespace

std::vector<Edit> sweep_edits(const DepGraph& dep, const Attribution& attr) {
  std::vector<Edit> edits;
  if (!attr.by_core.empty())
    edits.push_back(Edit::faster_core(
        static_cast<std::size_t>(std::stoul(attr.by_core.front().name.substr(4))),
        2.0));
  edits.push_back(Edit::faster_link(2.0));
  edits.push_back(Edit::wider_link(2.0));
  // Heaviest transfer on the path that joins two known tasks.
  for (auto it = attr.path.rbegin(); it != attr.path.rend(); ++it) {
    const Segment& s = dep.nodes()[it->node];
    if (s.kind != SegKind::kTransfer || s.src_task == perf::kNoTask ||
        s.dst_task == perf::kNoTask || it->contribution == 0)
      continue;
    edits.push_back(Edit::remove_dependence(s.src_task, s.dst_task));
    break;
  }
  return edits;
}

std::vector<std::string> corpus_names() {
  return {"pipeline3", "jpeg", "h264", "mixed"};
}

Result<CorpusCase> build_corpus_case(const std::string& name,
                                     const CritOptions& opts) {
  CorpusCase c;
  if (name == "pipeline3") {
    c.graph = maps::pipeline_taskgraph("pipe", 40'000, 0,
                                       sched::Criticality::kBestEffort);
    c.cfg = platform_for(opts, /*hetero=*/false);
  } else if (name == "jpeg") {
    maps::PartitionConfig pc;
    pc.max_tasks = std::max<std::size_t>(opts.cores, 4);
    c.graph = maps::partition_program(
                  maps::jpeg_encoder_program(opts.blocks), pc)
                  .graph;
    c.cfg = platform_for(opts, /*hetero=*/false);
  } else if (name == "h264") {
    c.graph = maps::h264_encoder_taskgraph(opts.slices);
    c.cfg = platform_for(opts, /*hetero=*/false);
  } else if (name == "mixed") {
    maps::PartitionConfig pc;
    pc.max_tasks = std::max<std::size_t>(opts.cores, 4);
    c.graph =
        maps::partition_program(maps::mixed_kind_program(6), pc).graph;
    c.cfg = platform_for(opts, /*hetero=*/true);
  } else {
    return make_error("unknown workload: " + name + " (try --list)");
  }
  c.task_to_pe = maps::heft_map(c.graph, maps::pes_from_platform(c.cfg),
                                maps::comm_cost_from_platform(c.cfg))
                     .task_to_pe;
  return c;
}

Result<CritOptions> parse_crit_args(const std::vector<std::string>& args) {
  CritOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (RW_TRY(cli::parse_common_flag(args, i, opts))) {
      continue;
    } else if (a == "--mesh") {
      opts.mesh = true;
    } else if (a == "--cores") {
      opts.cores = static_cast<std::size_t>(RW_TRY(cli::arg_u64(args, i, a)));
      if (opts.cores == 0) return make_error("--cores must be >= 1");
    } else if (a == "--rounds") {
      opts.rounds = RW_TRY(cli::arg_uint<int>(args, i, a));
    } else if (a == "--blocks") {
      opts.blocks = RW_TRY(cli::arg_uint<std::uint32_t>(args, i, a));
      if (opts.blocks == 0) return make_error("--blocks must be >= 1");
    } else if (a == "--slices") {
      opts.slices = RW_TRY(cli::arg_uint<std::uint32_t>(args, i, a));
      if (opts.slices == 0) return make_error("--slices must be >= 1");
    } else if (a == "--help" || a == "-h") {
      return make_error(std::string("usage: rwcritpath ") +
                        cli::common_usage() +
                        " [--mesh] [--cores N] [--rounds R] [--blocks B]"
                        " [--slices S] [workload...]");
    } else if (!a.empty() && a[0] == '-') {
      return make_error("unknown option: " + a);
    } else {
      opts.workloads.push_back(a);
    }
  }
  return opts;
}

std::string critpath_json(const CritOptions& opts,
                          const std::vector<WorkloadReport>& reports) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-critpath-1");
  w.key("cores").value(static_cast<std::uint64_t>(opts.cores));
  w.key("mesh").value(opts.mesh);
  w.key("seed").value(opts.seed);
  w.key("workloads").begin_array();
  for (const WorkloadReport& r : reports) write_workload(w, r);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

CritReport run_critpath(const CritOptions& opts, std::ostream& out) {
  CritReport rep;
  if (opts.list) {
    out << "workloads:\n";
    for (const std::string& n : corpus_names()) out << "  " << n << "\n";
    out << "whatif edits: faster-core faster-link wider-link remove-dep"
           " advise\n";
    return rep;
  }

  std::vector<std::string> names =
      opts.workloads.empty() ? corpus_names() : opts.workloads;
  for (const std::string& name : names) {
    auto built = build_corpus_case(name, opts);
    if (!built.ok()) {
      out << built.error().to_string() << "\n";
      rep.exit_code = 2;
      return rep;
    }
    const CorpusCase& c = built.value();

    WorkloadReport r;
    r.name = name;
    const DepGraph dep = trace_mapping(c.graph, c.cfg, c.task_to_pe);
    const Retimed base = retime(dep, {}, &c.graph);
    r.observed = dep.observed_makespan();
    r.retimed = base.makespan;
    r.nodes = dep.nodes().size();
    r.dep_edges = dep.dependence_edge_count();
    r.res_edges = dep.resource_edge_count();
    r.trace_events = 2 * r.nodes;
    r.attribution = attribute(dep, base);

    for (const Edit& e : sweep_edits(dep, r.attribution)) {
      const std::vector<Edit> one{e};
      const Validation v = validate(c.graph, c.cfg, c.task_to_pe, one);
      WhatIfRow row;
      row.edit = e.describe();
      row.predicted = v.pred.predicted;
      row.resim = v.truth.edited;
      row.rel_error = v.rel_error;
      row.speedup = v.truth.edited == 0
                        ? 1.0
                        : static_cast<double>(v.truth.baseline) /
                              static_cast<double>(v.truth.edited);
      row.ops = v.pred.ops;
      if (row.rel_error > kErrorBound) rep.exit_code = 1;
      r.whatifs.push_back(std::move(row));
    }

    r.advice = advise_remap(c.graph, c.cfg, c.task_to_pe, opts.rounds);
    if (r.advice.resim_makespan > r.advice.baseline_makespan)
      rep.exit_code = 1;  // the never-slower contract

    if (opts.write_files) {
      r.json_path = opts.out_dir + "/CRITPATH_" + name + ".json";
      if (!cli::write_text(r.json_path, workload_json(opts, r))) {
        out << "error: failed writing " << r.json_path << "\n";
        rep.exit_code = 1;
      }
    }
    rep.workloads.push_back(std::move(r));
  }

  if (opts.json_stdout) {
    out << cli::envelope("rwcritpath", opts.seed,
                         critpath_json(opts, rep.workloads))
        << "\n";
    return rep;
  }

  out << strformat("== critical path: %zu cores %s, seed %llu\n\n", opts.cores,
                   opts.mesh ? "mesh" : "bus",
                   static_cast<unsigned long long>(opts.seed));
  Table t({"workload", "makespan_us", "compute", "transfer", "top owner",
           "edit", "pred_us", "resim_us", "err"});
  for (const WorkloadReport& r : rep.workloads) {
    const std::string top =
        r.attribution.by_task.empty() ? "-" : r.attribution.by_task.front().name;
    bool first = true;
    for (const WhatIfRow& row : r.whatifs) {
      t.add_row({first ? r.name : "",
                 first ? strformat("%.3f", static_cast<double>(r.observed) * 1e-6)
                       : "",
                 first ? Table::percent(r.attribution.makespan == 0
                                            ? 0.0
                                            : static_cast<double>(
                                                  r.attribution.compute_ps) /
                                                  static_cast<double>(
                                                      r.attribution.makespan))
                       : "",
                 first ? Table::percent(r.attribution.makespan == 0
                                            ? 0.0
                                            : static_cast<double>(
                                                  r.attribution.transfer_ps) /
                                                  static_cast<double>(
                                                      r.attribution.makespan))
                       : "",
                 first ? top : "", row.edit,
                 strformat("%.3f", static_cast<double>(row.predicted) * 1e-6),
                 strformat("%.3f", static_cast<double>(row.resim) * 1e-6),
                 strformat("%.4f", row.rel_error)});
      first = false;
    }
    t.add_row({first ? r.name : "", "", "", "", "",
               strformat("advise(%zu moves%s)", r.advice.moves,
                         r.advice.reverted ? ", reverted" : ""),
               strformat("%.3f",
                         static_cast<double>(r.advice.predicted_makespan) * 1e-6),
               strformat("%.3f",
                         static_cast<double>(r.advice.resim_makespan) * 1e-6),
               strformat("%.3fx", r.advice.speedup())});
  }
  out << t.to_string();
  for (const WorkloadReport& r : rep.workloads)
    if (!r.json_path.empty()) out << "\nwrote " << r.json_path;
  out << "\n";
  return rep;
}

}  // namespace rw::critpath
