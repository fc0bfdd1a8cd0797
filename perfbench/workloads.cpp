#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "critpath/analysis.hpp"
#include "critpath/depgraph.hpp"
#include "critpath/driver.hpp"
#include "critpath/whatif.hpp"
#include "fault/injector.hpp"
#include "fault/scenario.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "maps/mapping.hpp"
#include "maps/perf_bounds.hpp"
#include "perf/export.hpp"
#include "perf/session.hpp"
#include "perf/traceview.hpp"
#include "perf/workload.hpp"
#include "sim/parallel.hpp"
#include "sim/platform.hpp"
#include "vpdebug/replay.hpp"

namespace perfbench {
namespace {

using namespace rw;

// Sizes are chosen so one simulation takes milliseconds of host time and
// a whole corpus pass stays well under a second: a run then holds many
// passes, and its op mix does not depend on where the clock stops.
struct Sizes {
  // perf demo iteration multipliers, in kDemos order: each demo op takes
  // a few milliseconds, so one scheduler hiccup is a small share of it.
  std::uint64_t demo_scale[4];
  std::uint32_t jpeg_blocks;  // critpath corpus sizes
  std::uint32_t h264_slices;
  std::uint64_t tiled_scale;  // tiled_pipeline on the 4-tile kernel
  // Cases in the random sweep of one campaign: 1000 light every coverage
  // cell, so the serial directed fill, whose cost depends on the seed,
  // has nothing left to do.
  std::uint64_t fuzz_seeds;
  std::size_t fuzz_campaigns;
};

constexpr Sizes kFull{{64, 256, 64, 64}, 64, 32, 8, 1000, 2};
constexpr Sizes kTiny{{2, 2, 2, 2}, 4, 2, 2, 12, 1};

constexpr std::uint32_t kCores = 4;
constexpr std::uint32_t kTiles = 4;
constexpr const char* kDemos[] = {"pipeline", "forkjoin", "shared_hammer",
                                  "tiled_pipeline"};

// The fuzz oracle's livelock guard, reused by the layer probe.
constexpr std::uint64_t kProbeEventBudget = 20'000'000;

// Generates a fault_pipeline case, the family most campaign cases have.
constexpr std::uint64_t kWarmUpCaseSeed = 1;

enum class Mode { kUntraced, kObserved, kTiled };

sim::PlatformConfig base_platform(bool mesh) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(kCores);
  if (mesh) {
    cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
  }
  return cfg;
}

/// One graph of the critpath corpus, mapped onto its platform.
struct GraphCase {
  std::string name;  // "<graph>/<fabric>"
  sim::PlatformConfig cfg;
  maps::TaskGraph tg;
  std::vector<std::size_t> task_to_pe;
};

/// A corpus entry: one demo simulation, or (with `graphs`) one replay of
/// the whole critpath corpus on both fabrics. Folding the eight small
/// replays into one op keeps the op count of a pass odd, so the median op
/// never falls on the gap between two entries' time clusters.
struct SimEntry {
  std::string name;
  std::string workload;  // perf demo name
  sim::PlatformConfig cfg;
  std::uint64_t seed = 0;
  std::uint64_t scale = 0;
  std::vector<GraphCase> graphs;
};

void add_sim_counts(sim::Platform& plat, TimePs makespan, Counts& c) {
  std::uint64_t events = 0;
  for (std::size_t t = 0; t < plat.tile_count(); ++t)
    events += plat.tile_kernel(static_cast<std::uint32_t>(t)).events_executed();
  c["sim.events"] += events;
  c["sim.icn_transfers"] += plat.interconnect().transfer_count();
  c["sim.makespan_ps"] += makespan;
  if (sim::TiledEngine* eng = plat.engine()) {
    c["sim.tiles.epochs"] += eng->epochs();
    c["sim.tiles.cross_posts"] += eng->cross_posts();
    c["sim.tiles.used_parallel"] += eng->last_run_parallel() ? 1 : 0;
  }
}

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

std::unique_ptr<sim::Platform> build(const sim::PlatformConfig& cfg,
                                     Spans& sp) {
  Span s(sp, "sim.build");
  return std::make_unique<sim::Platform>(cfg);
}

void spawn(const std::string& workload, sim::Platform& plat,
           std::uint64_t seed, std::uint64_t scale, Spans& sp) {
  Span s(sp, "sim.spawn");
  if (!perf::spawn_workload(workload, plat, seed, scale))
    throw std::runtime_error("unknown demo workload " + workload);
}

/// Plain demo simulation on `cfg`: build, spawn, run.
TimePs simulate(const SimEntry& e, const sim::PlatformConfig& cfg, Spans& sp,
                Counts* counts) {
  const auto plat = build(cfg, sp);
  spawn(e.workload, *plat, e.seed, e.scale, sp);
  {
    Span s(sp, "sim.run");
    plat->run();
  }
  if (counts != nullptr) add_sim_counts(*plat, plat->now(), *counts);
  return plat->now();
}

/// Plain replay of a mapped graph: build, execute_on_platform.
TimePs replay(const GraphCase& g, const sim::PlatformConfig& cfg, Spans& sp,
              Counts& counts) {
  const auto plat = build(cfg, sp);
  TimePs makespan = 0;
  {
    Span s(sp, "sim.run");
    makespan = maps::execute_on_platform(g.tg, g.task_to_pe, *plat);
  }
  add_sim_counts(*plat, makespan, counts);
  return makespan;
}

/// The observation stack of one traced platform: PMU session and
/// recorder attached before the run, the trace consumers after it.
class Observed {
 public:
  Observed(sim::PlatformConfig cfg, Spans& sp) {
    cfg.trace_enabled = true;
    plat_ = build(cfg, sp);
    {
      Span s(sp, "perf.attach");
      session_ = std::make_unique<perf::PerfSession>(*plat_);
    }
    rec_ = std::make_unique<vpdebug::ExecutionRecorder>(*plat_);
  }

  [[nodiscard]] sim::Platform& platform() { return *plat_; }

  /// Report, decode and export the finished run into `d` and `c`.
  perf::TraceView consume(TimePs makespan, Spans& sp, Digest& d, Counts& c) {
    add_sim_counts(*plat_, makespan, c);
    perf::PerfReport rep;
    {
      Span s(sp, "perf.report");
      rep = session_->report();
    }
    const std::vector<sim::TraceEvent>& events = plat_->tracer().events();
    perf::TraceView view;
    {
      Span s(sp, "perf.traceview");
      view = perf::TraceView::from_events(events);
    }
    std::string exports[4];
    {
      Span s(sp, "perf.export");
      exports[0] = perf::to_chrome_trace(events);
      exports[1] = perf::to_folded_stacks(rep.profile);
      exports[2] = perf::to_csv(rep.epochs, rep.num_cores);
      exports[3] = perf::to_json(rep);
    }
    d.add(makespan);
    d.add(rec_->fingerprint());
    d.add(static_cast<std::uint64_t>(view.span_count()));
    for (const std::string& x : exports) {
      Digest xd;
      xd.add(x);
      d.add(xd.value());
      c["perf.export_bytes"] += x.size();
    }
    c["trace.records"] += events.size();
    c["vpdebug.recorder_events"] += rec_->events();
    const perf::CoreCounters tot = rep.totals();
    c["pmu.mem_accesses"] += tot.mem_reads + tot.mem_writes;
    c["pmu.stall_cycles"] += tot.stall_cycles;
    return view;
  }

 private:
  // Declared platform first: the session and recorder detach from it.
  std::unique_ptr<sim::Platform> plat_;
  std::unique_ptr<perf::PerfSession> session_;
  std::unique_ptr<vpdebug::ExecutionRecorder> rec_;
};

class SimWorkload final : public Workload {
 public:
  SimWorkload(Mode mode, std::uint64_t seed, const Sizes& sz) : mode_(mode) {
    Rng rng(seed);
    const auto demo = [&](const char* name, bool mesh, std::uint64_t scale) {
      SimEntry e;
      e.name = std::string(name) + (mesh ? "/mesh" : "/bus");
      e.workload = name;
      e.cfg = base_platform(mesh);
      e.seed = rng.next_u64();
      e.scale = scale;
      entries_.push_back(std::move(e));
    };
    if (mode == Mode::kTiled) {
      // One entry, so every op sits in one time cluster. The sequential
      // tiled engine is the reference the parallel one must reproduce.
      demo("tiled_pipeline", false, sz.tiled_scale);
      sim::PlatformConfig cfg = tiled(entries_[0].cfg);
      cfg.kernel.exec = sim::ExecMode::kSequential;
      Spans off;
      reference_ = simulate(entries_[0], cfg, off, nullptr);
      return;
    }
    for (const bool mesh : {false, true})
      for (std::size_t k = 0; k < std::size(kDemos); ++k)
        demo(kDemos[k], mesh, sz.demo_scale[k]);

    SimEntry corpus;
    corpus.name = "critpath_corpus";
    for (const bool mesh : {false, true}) {
      for (const std::string& name : critpath::corpus_names()) {
        critpath::CritOptions opts;
        opts.cores = kCores;
        opts.mesh = mesh;
        opts.blocks = sz.jpeg_blocks;
        opts.slices = sz.h264_slices;
        auto built = critpath::build_corpus_case(name, opts);
        if (!built.ok()) throw std::runtime_error(built.error().to_string());
        GraphCase g;
        g.name = name + (mesh ? "/mesh" : "/bus");
        g.cfg = built.value().cfg;
        g.tg = std::move(built.value().graph);
        // The seed perturbs every task's cost by up to 10% and the mapping
        // is planned again, so each seed replays a different schedule.
        for (maps::TaskNode& t : g.tg.tasks())
          t.ref_cycles = std::max<Cycles>(
              1, static_cast<Cycles>(static_cast<double>(t.ref_cycles) *
                                     (0.9 + 0.2 * rng.next_double())));
        g.task_to_pe = maps::heft_map(g.tg, maps::pes_from_platform(g.cfg),
                                      maps::comm_cost_from_platform(g.cfg))
                           .task_to_pe;
        corpus.graphs.push_back(std::move(g));
      }
    }
    entries_.push_back(std::move(corpus));
  }

  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] const std::string& entry_name(std::size_t i) const override {
    return entries_[i].name;
  }

  UnitResult run(std::size_t i, Spans& sp) override {
    const SimEntry& e = entries_[i];
    switch (mode_) {
      case Mode::kUntraced: return run_untraced(e, sp);
      case Mode::kObserved: return run_observed(e, sp);
      case Mode::kTiled: return run_tiled(e, sp);
    }
    return {};
  }

 private:
  static sim::PlatformConfig tiled(sim::PlatformConfig cfg) {
    sim::apply_tiling(cfg, kTiles, /*partition_cores=*/true);
    return cfg;
  }

  static UnitResult run_untraced(const SimEntry& e, Spans& sp) {
    UnitResult r;
    Digest d;
    TimePs makespan = 0;
    if (e.graphs.empty()) {
      makespan = simulate(e, e.cfg, sp, &r.counts);
      d.add(makespan);
    }
    for (const GraphCase& g : e.graphs) {
      const TimePs m = replay(g, g.cfg, sp, r.counts);
      d.add(m);
      makespan += m;
    }
    r.sim_us = static_cast<double>(makespan) * 1e-6;
    r.digest = d.value();
    return r;
  }

  UnitResult run_tiled(const SimEntry& e, Spans& sp) const {
    UnitResult r;
    const TimePs makespan = simulate(e, tiled(e.cfg), sp, &r.counts);
    r.sim_us = static_cast<double>(makespan) * 1e-6;
    if (makespan != reference_)
      r.problem = e.name + ": parallel tiled makespan differs from sequential";
    Digest d;
    d.add(makespan);
    r.digest = d.value();
    if (sp.enabled) {
      // Readout: the same simulation untiled, for the tiled speed-up.
      Spans off;
      const std::int64_t t0 = now_ns();
      (void)simulate(e, e.cfg, off, nullptr);
      r.excluded_ms = ms_since(t0);
      r.samples["readout.untiled_ms"].push_back(r.excluded_ms);
    }
    return r;
  }

  static UnitResult run_observed(const SimEntry& e, Spans& sp) {
    UnitResult r;
    Digest d;
    if (e.graphs.empty()) {
      Observed ob(e.cfg, sp);
      spawn(e.workload, ob.platform(), e.seed, e.scale, sp);
      const std::int64_t run_t0 = now_ns();
      {
        Span s(sp, "sim.run");
        ob.platform().run();
      }
      const double run_ms = ms_since(run_t0);
      const TimePs makespan = ob.platform().now();
      (void)ob.consume(makespan, sp, d, r.counts);
      r.sim_us = static_cast<double>(makespan) * 1e-6;
      if (sp.enabled) {
        // Readout: the same simulation untraced, for the observation ratio.
        const std::int64_t shadow_t0 = now_ns();
        {
          Spans off;
          const auto bare = build(e.cfg, off);
          spawn(e.workload, *bare, e.seed, e.scale, off);
          const std::int64_t t0 = now_ns();
          bare->run();
          r.samples["readout.traced_run_ms." + e.workload].push_back(run_ms);
          r.samples["readout.untraced_run_ms." + e.workload].push_back(
              ms_since(t0));
          if (bare->now() != makespan)
            r.problem = e.name + ": tracing changed the simulated makespan";
        }
        r.excluded_ms = ms_since(shadow_t0);
      }
    }
    for (const GraphCase& g : e.graphs) {
      Observed ob(g.cfg, sp);
      TimePs makespan = 0;
      {
        Span s(sp, "sim.run");
        makespan =
            maps::execute_on_platform_traced(g.tg, g.task_to_pe, ob.platform());
      }
      const perf::TraceView view = ob.consume(makespan, sp, d, r.counts);
      critpath::DepGraph dep;
      {
        Span s(sp, "critpath.build");
        dep = critpath::DepGraph::build(view, ob.platform().config());
      }
      critpath::Retimed base;
      critpath::Attribution attr;
      {
        Span s(sp, "critpath.retime");
        base = critpath::retime(dep, {}, &g.tg);
        attr = critpath::attribute(dep, base);
      }
      std::uint64_t ops = base.ops;
      {
        Span s(sp, "critpath.predict");
        for (const critpath::Edit& edit : critpath::sweep_edits(dep, attr)) {
          const std::vector<critpath::Edit> one{edit};
          const critpath::Prediction p = critpath::predict(dep, one, &g.tg);
          d.add(p.predicted);
          ops += p.ops;
        }
      }
      if (base.makespan != makespan)
        r.problem = g.name + ": critpath replay makespan differs from the run";
      r.counts["critpath.nodes"] += dep.nodes().size();
      r.counts["critpath.ops"] += ops;
      r.sim_us += static_cast<double>(makespan) * 1e-6;
    }
    r.digest = d.value();
    return r;
  }

  Mode mode_;
  std::vector<SimEntry> entries_;
  TimePs reference_ = 0;  // tiled mode: the sequential engine's makespan
};

const char* family_group(fuzz::Family f) {
  switch (f) {
    case fuzz::Family::kFaultPipeline: return "fault";
    case fuzz::Family::kMaps: return "maps";
    case fuzz::Family::kErt: return "ert";
    default: return "perf";
  }
}

class FuzzWorkload final : public Workload {
 public:
  FuzzWorkload(std::uint64_t seed, const Sizes& sz, bool tiny)
      : seeds_per_campaign_(sz.fuzz_seeds), tiny_(tiny) {
    Rng rng(seed);
    const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
    threads_ = std::min<std::size_t>(hw, 4);
    for (std::size_t k = 0; k < sz.fuzz_campaigns; ++k) {
      base_seeds_.push_back(rng.next_u64());
      names_.push_back("campaign" + std::to_string(k));
    }
    swept_.resize(base_seeds_.size());
  }

  [[nodiscard]] std::size_t size() const override { return base_seeds_.size(); }
  [[nodiscard]] const std::string& entry_name(std::size_t i) const override {
    return names_[i];
  }
  [[nodiscard]] bool self_timed() const override { return true; }

  // One fuzz case, not a whole campaign: the op, not the unit. Its seed
  // is fixed, so set-up costs the same whatever the workload seed.
  void warm_up() override {
    fuzz::GeneratorConfig gcfg;
    gcfg.tiny = tiny_;
    (void)fuzz::run_case(fuzz::generate_case(kWarmUpCaseSeed, gcfg));
  }

  UnitResult run(std::size_t i, Spans& sp) override {
    fuzz::CampaignConfig cc;
    cc.seeds = seeds_per_campaign_;
    cc.base_seed = base_seeds_[i];
    cc.shrink = true;
    cc.directed_fill = true;
    cc.tiny = tiny_;
    cc.threads = threads_;
    fuzz::CampaignReport rep;
    {
      Span s(sp, "fuzz.campaign");
      rep = fuzz::run_campaign(cc);
    }

    UnitResult r;
    r.ops = rep.cases;
    std::vector<std::uint64_t>& swept = swept_[i];
    swept.clear();
    std::size_t pool = 0;
    for (const harness::ScenarioResult& batch : rep.batches) {
      pool = std::max(pool, batch.threads_used);
      double busy_ns = 0.0;
      for (const harness::RunRecord& rec : batch.runs) {
        swept.push_back(rec.seed);
        const double ms = static_cast<double>(rec.metrics.wall_ns) * 1e-6;
        r.op_ms.push_back(ms);
        busy_ns += static_cast<double>(rec.metrics.wall_ns);
        r.sim_us += static_cast<double>(rec.metrics.makespan) * 1e-6;
        r.sim_host_s += ms * 1e-3;
        r.counts["sim.makespan_ps"] += rec.metrics.makespan;
        const auto fam = static_cast<fuzz::Family>(
            static_cast<int>(rec.metrics.extra_or("fuzz.family")));
        r.samples[std::string("fuzz.case_ms.") + family_group(fam)].push_back(
            ms);
        if (!rec.ok || rec.metrics.extra_or("fuzz.violations") != 0.0)
          ++r.failed;
      }
      r.sums["harness.busy_ns"] += busy_ns;
      r.sums["harness.capacity_ns"] +=
          static_cast<double>(batch.threads_used) *
          static_cast<double>(batch.wall_ns);
    }
    for (const fuzz::FailureReport& f : rep.failures)
      if (std::find(swept.begin(), swept.end(), f.case_seed) == swept.end())
        ++r.failed;  // a directed-fill case

    r.counts["fuzz.cases"] = rep.cases;
    r.counts["fuzz.sub_runs"] = rep.sub_runs;
    r.counts["fuzz.coverage_cells"] = rep.coverage.hit_count();
    r.samples["harness.pool_threads"].push_back(static_cast<double>(pool));
    if (!rep.green())
      r.problem = names_[i] + ": campaign found " +
                  std::to_string(rep.failures.size()) + " failing cases";
    Digest d;
    d.add(rep.green() ? 1 : 0);
    d.add(rep.to_json());
    r.digest = d.value();
    return r;
  }

  // The campaign hides its platforms inside the oracle, so the span run
  // replays each swept case once from the outside: build, spawn and run
  // for the simulation families, the fault scenario for fault_pipeline.
  void probe(std::size_t i, Spans& sp, Counts& c) override {
    fuzz::GeneratorConfig gcfg;
    gcfg.tiny = tiny_;
    Counts sim;
    for (const std::uint64_t seed : swept_[i]) {
      const fuzz::CampaignCase fc = fuzz::generate_case(seed, gcfg);
      switch (fc.family) {
        case fuzz::Family::kFaultPipeline: {
          fault::ScenarioConfig sc;
          sc.cores = fc.cores;
          sc.mesh = fc.mesh;
          sc.seed = fc.seed;
          sc.items = fc.items;
          sc.compute_cycles = fc.compute_cycles;
          sc.policy = fc.recovery;
          sc.watchdog_timeout = fc.watchdog_timeout;
          sc.queue = fc.queue;
          sc.threads = fc.tiles;
          sc.explicit_plan = fc.plan.empty() ? nullptr : &fc.plan;
          fault::ScenarioOutcome o;
          {
            Span s(sp, "fault.scenario");
            o = fault::run_fault_scenario(sc);
          }
          c["fault.faults_injected"] += o.faults_injected;
          c["fault.recoveries"] += o.recoveries;
          break;
        }
        case fuzz::Family::kMaps: {
          const maps::TaskGraph g = fuzz::build_case_graph(fc);
          const sim::PlatformConfig pc =
              fc.platform_config(fc.queue, fc.tiles > 1);
          const maps::MappingResult m =
              fc.dynamic_mapper
                  ? maps::dynamic_schedule(g, maps::pes_from_platform(pc),
                                           maps::comm_cost_from_platform(pc))
                  : maps::heft_map(g, maps::pes_from_platform(pc),
                                   maps::comm_cost_from_platform(pc));
          GraphCase gc;
          gc.tg = g;
          gc.task_to_pe = m.task_to_pe;
          (void)replay(gc, pc, sp, sim);
          break;
        }
        case fuzz::Family::kErt: break;  // virtual time, no platform
        default: {
          const auto plat =
              build(fc.platform_config(fc.queue, fc.tiles > 1), sp);
          fault::FaultInjector injector(*plat, fc.plan);
          injector.arm();
          spawn(fuzz::family_name(fc.family), *plat, fc.seed, fc.scale, sp);
          {
            Span s(sp, "sim.run");
            plat->run(kProbeEventBudget);
          }
          add_sim_counts(*plat, plat->now(), sim);
          c["fault.faults_injected"] += injector.applied();
          break;
        }
      }
    }
    // The campaign's own records already give the makespans.
    c["sim.events"] += sim["sim.events"];
    c["sim.icn_transfers"] += sim["sim.icn_transfers"];
  }

 private:
  std::uint64_t seeds_per_campaign_;
  bool tiny_;
  std::size_t threads_ = 1;
  std::vector<std::uint64_t> base_seeds_;
  std::vector<std::string> names_;
  std::vector<std::vector<std::uint64_t>> swept_;  // case seeds per entry
};

}  // namespace

std::unique_ptr<Workload> Workload::make(std::string_view name,
                                         std::uint64_t seed, bool tiny) {
  const Sizes& sz = tiny ? kTiny : kFull;
  if (name == "sim_untraced")
    return std::make_unique<SimWorkload>(Mode::kUntraced, seed, sz);
  if (name == "sim_observed")
    return std::make_unique<SimWorkload>(Mode::kObserved, seed, sz);
  if (name == "tiled_4t")
    return std::make_unique<SimWorkload>(Mode::kTiled, seed, sz);
  if (name == "fuzz_batch")
    return std::make_unique<FuzzWorkload>(seed, sz, tiny);
  return nullptr;
}

}  // namespace perfbench
