// E13 — kernel event throughput: the two-tier calendar queue vs the
// legacy binary heap.
//
// Every experiment in this repo advances time through rw::sim::Kernel, so
// events/sec is the multiplier on every sweep. This bench drives the bare
// kernel with a deterministic event storm parameterized by steady queue
// depth (a parked far-future backlog) and fan-out (children scheduled per
// executed event), plus one end-to-end pair running a full virtual-
// platform workload under each queue. Expected shape: the binary heap
// degrades as O(log depth) per event while the calendar wheel stays
// flat — >=2x events/sec at 10k pending — and both queues execute the
// bit-identical event order (checked here via an order hash, and held by
// tests/test_sim_kernel_queue.cpp via ExecutionRecorder fingerprints).
//
// A second axis covers the tile-partitioned engine (sim/parallel.hpp):
// the same storm split over 1/2/4 tiles with cross-tile mailbox posts,
// run once in the sequential reference mode and once with real worker
// threads (force_threads, so the 1-CPU CI smoke still exercises the
// threaded code path). Gates: the parallel fingerprint must equal the
// sequential one on every cell (unconditional), and on machines with
// enough hardware threads the 4-tile parallel run must clear a >=2x
// wall-clock speedup over its own sequential reference. End to end, the
// tiled_pipeline workload runs sequential, forced-parallel and adaptive
// (kParallel without force_threads); all three must be identical, and the
// adaptive executor must keep this sparse workload off threads.
//
// Results land in BENCH_kernel.json with wall-clock-derived fields
// scrubbed (byte-identical across reruns, like BENCH_contracts.json); the
// timing gates — calendar vs heap floors and the tiled speedup — are
// enforced by this process's exit code, and CI replays --tiny, diffs the
// rerun, and python-checks the identity fields plus the printed verdicts.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/fnv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"
#include "perf/workload.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"
#include "sim/platform.hpp"
#include "vpdebug/replay.hpp"

namespace {

using namespace rw;

struct BenchConfig {
  std::uint64_t events = 1'000'000;       // per storm run
  std::uint64_t e2e_scale = 512;          // platform workload scale
  std::vector<std::int64_t> pendings = {0, 100, 10'000};
  std::vector<std::uint64_t> fanouts = {1, 4};
  std::uint64_t tiled_events = 400'000;   // per tiled-storm run, all tiles
  std::uint64_t tile_work = 256;          // mix64 rounds per event body
  std::vector<std::uint32_t> tiles_axis = {1, 2, 4};
};

constexpr sim::QueuePolicy kPolicies[] = {sim::QueuePolicy::kBinaryHeap,
                                          sim::QueuePolicy::kCalendar};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Deterministic self-sustaining event storm. Each fired event folds its id
// and timestamp into an order hash (the cross-queue identity probe) and
// schedules `fanout` children with mixed deltas: mostly near-term (wheel
// territory), occasionally far future (spill territory), priority jitter.
struct Storm {
  sim::Kernel* k;
  std::uint64_t budget;
  std::uint64_t fanout;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::uint64_t order_hash = fnv::kRecorderSeed;

  void fire(std::uint64_t id) {
    ++executed;
    // One FNV step per 64-bit word, not per byte: cheap enough not to
    // skew the events/s this bench measures.
    order_hash = (order_hash ^ id) * fnv::kPrime;
    order_hash = (order_hash ^ k->now()) * fnv::kPrime;
    for (std::uint64_t c = 0; c < fanout && scheduled < budget; ++c) {
      const std::uint64_t child = scheduled++;
      const std::uint64_t h = mix64(child);
      const TimePs dt =
          (h % 16 == 0) ? 1'000'000 + h % 8'000'000  // beyond the horizon
                        : h % 2'048;                 // wheel territory
      const int pri = static_cast<int>((h >> 8) % 3) - 1;
      k->schedule_in(dt, StormEvent{this, child}, pri);
    }
  }

  struct StormEvent {
    Storm* storm;
    std::uint64_t id;
    void operator()() const { storm->fire(id); }
  };
};
static_assert(sim::EventFn::stores_inline<Storm::StormEvent>);

RunMetrics run_storm(sim::QueuePolicy policy, const BenchConfig& cfg,
                     std::int64_t pending, std::uint64_t fanout,
                     sim::Kernel::QueueCounters* work) {
  sim::Kernel k(policy);
  // Parked backlog: daemons beyond the storm window set the steady queue
  // depth without ever executing.
  for (std::int64_t i = 0; i < pending; ++i)
    k.schedule_daemon_at(milliseconds(1000) + static_cast<TimePs>(i) * 1000,
                         [] {});

  Storm storm{&k, cfg.events, fanout};
  const std::uint64_t roots = std::min<std::uint64_t>(16, cfg.events);
  for (std::uint64_t r = 0; r < roots; ++r)
    k.schedule_at(mix64(r) % 1000, Storm::StormEvent{&storm, storm.scheduled++});

  const auto t0 = std::chrono::steady_clock::now();
  k.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  *work = k.queue_counters();

  RunMetrics m;
  m.makespan = k.now();
  m.set_extra("events", static_cast<double>(storm.executed));
  m.set_extra("events_per_sec",
              static_cast<double>(storm.executed) / (wall_ns / 1e9));
  m.set_extra("wall_ms", wall_ns / 1e6);
  m.set_extra("pending", static_cast<double>(pending));
  m.set_extra("fanout", static_cast<double>(fanout));
  m.set_extra("calendar",
              policy == sim::QueuePolicy::kCalendar ? 1.0 : 0.0);
  m.set_extra("order_hash_lo",
              static_cast<double>(storm.order_hash & 0xffffffffULL));
  m.set_extra("order_hash_hi", static_cast<double>(storm.order_hash >> 32));
  return m;
}

// End-to-end: a full virtual platform (cores, channels, DMA, interconnect)
// running the communication-heavy pipeline workload under each queue.
RunMetrics run_e2e(sim::QueuePolicy policy, const BenchConfig& cfg,
                   sim::Kernel::QueueCounters* work) {
  sim::PlatformConfig pcfg = sim::PlatformConfig::homogeneous(4);
  pcfg.kernel.policy = policy;
  sim::Platform plat(std::move(pcfg));
  perf::spawn_workload("pipeline", plat, /*seed=*/7, cfg.e2e_scale);
  const auto t0 = std::chrono::steady_clock::now();
  plat.kernel().run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  *work = plat.kernel().queue_counters();

  RunMetrics m;
  m.makespan = plat.kernel().now();
  m.set_extra("events",
              static_cast<double>(plat.kernel().events_executed()));
  m.set_extra("events_per_sec",
              static_cast<double>(plat.kernel().events_executed()) /
                  (wall_ns / 1e9));
  m.set_extra("wall_ms", wall_ns / 1e6);
  m.set_extra("calendar",
              policy == sim::QueuePolicy::kCalendar ? 1.0 : 0.0);
  return m;
}

std::string storm_label(sim::QueuePolicy policy, std::int64_t pending,
                        std::uint64_t fanout) {
  return strformat("%s_p%lld_f%llu", sim::queue_policy_name(policy),
                   static_cast<long long>(pending),
                   static_cast<unsigned long long>(fanout));
}

// ------------------------------------------------------------ tiled storm

constexpr DurationPs kTileLookahead = 2048;

// Partitioned event storm: one independent sub-storm per tile, with 1/8 of
// the children posted to a sibling tile through the engine's timestamped
// mailboxes (landing exactly lookahead-deep, the earliest instant the
// conservative contract admits). Tiles share no mutable state — each event
// touches only its own tile's slot — so sequential and parallel execution
// are bit-identical; per-tile order hashes fold in tile order into one
// fingerprint.
struct TiledStorm {
  struct alignas(64) Tile {
    sim::Kernel* k = nullptr;
    std::uint64_t budget = 0;     // children this tile may still schedule
    std::uint64_t fanout = 0;
    std::uint64_t work = 0;       // mix64 rounds per event body
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t order_hash = fnv::kRecorderSeed;
  };

  sim::TiledEngine* engine = nullptr;
  std::vector<Tile> tiles;

  struct Event {
    TiledStorm* storm;
    std::uint32_t tile;
    std::uint64_t id;
    void operator()() const { storm->fire(tile, id); }
  };

  void fire(std::uint32_t t, std::uint64_t id) {
    Tile& tl = tiles[t];
    ++tl.executed;
    // The event "body": deterministic busy work, folded into the hash so
    // the optimizer cannot drop it.
    std::uint64_t acc = id;
    for (std::uint64_t w = 0; w < tl.work; ++w) acc = mix64(acc);
    tl.order_hash = (tl.order_hash ^ id ^ (acc >> 63)) * fnv::kPrime;
    tl.order_hash = (tl.order_hash ^ tl.k->now()) * fnv::kPrime;
    const auto tcount = static_cast<std::uint32_t>(tiles.size());
    for (std::uint64_t c = 0; c < tl.fanout && tl.scheduled < tl.budget;
         ++c) {
      const std::uint64_t child =
          (static_cast<std::uint64_t>(t) << 40) | tl.scheduled++;
      const std::uint64_t h = mix64(child);
      const int pri = static_cast<int>((h >> 8) % 3) - 1;
      if (tcount > 1 && h % 8 == 0) {
        const std::uint32_t dst =
            (t + 1 + static_cast<std::uint32_t>((h >> 16) % (tcount - 1))) %
            tcount;
        engine->post(t, dst, tl.k->now() + kTileLookahead + h % 2048,
                     Event{this, dst, child}, pri);
      } else {
        tl.k->schedule_in(h % 2048, Event{this, t, child}, pri);
      }
    }
  }

  [[nodiscard]] std::uint64_t total_executed() const {
    std::uint64_t n = 0;
    for (const Tile& t : tiles) n += t.executed;
    return n;
  }

  // Per-tile digests combined in tile order — the same canonicalization
  // ExecutionRecorder uses, so it is identical across exec modes.
  [[nodiscard]] std::uint64_t fingerprint() const {
    std::uint64_t f = fnv::kRecorderSeed;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      f = (f ^ t) * fnv::kPrime;
      f = (f ^ tiles[t].executed) * fnv::kPrime;
      f = (f ^ tiles[t].order_hash) * fnv::kPrime;
    }
    return f;
  }
};

RunMetrics run_tiled_storm(sim::QueuePolicy policy, const BenchConfig& cfg,
                           std::uint32_t tiles, std::int64_t pending,
                           bool parallel) {
  std::vector<std::unique_ptr<sim::Kernel>> kernels;
  std::vector<sim::Kernel*> ptrs;
  for (std::uint32_t t = 0; t < tiles; ++t) {
    kernels.push_back(std::make_unique<sim::Kernel>(policy));
    ptrs.push_back(kernels.back().get());
  }
  sim::TiledEngine engine(
      ptrs, kTileLookahead,
      {parallel ? sim::ExecMode::kParallel : sim::ExecMode::kSequential,
       /*force_threads=*/parallel});

  TiledStorm storm;
  storm.engine = &engine;
  storm.tiles.resize(tiles);
  for (std::uint32_t t = 0; t < tiles; ++t) {
    TiledStorm::Tile& tl = storm.tiles[t];
    tl.k = ptrs[t];
    tl.budget = cfg.tiled_events / tiles;
    tl.fanout = 4;
    tl.work = cfg.tile_work;
    // Parked backlog: `pending` is the steady depth of each tile's queue.
    for (std::int64_t i = 0; i < pending; ++i)
      tl.k->schedule_daemon_at(
          milliseconds(1000) + static_cast<TimePs>(i) * 1000, [] {});
    const std::uint64_t roots = std::min<std::uint64_t>(16, tl.budget);
    for (std::uint64_t r = 0; r < roots; ++r)
      tl.k->schedule_at(
          mix64(r ^ (t * 0x9e3779b9ULL)) % 1000,
          TiledStorm::Event{
              &storm, t,
              (static_cast<std::uint64_t>(t) << 40) | tl.scheduled++});
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());

  RunMetrics m;
  m.makespan = engine.now();
  const std::uint64_t fp = storm.fingerprint();
  m.set_extra("events", static_cast<double>(storm.total_executed()));
  m.set_extra("events_per_sec",
              static_cast<double>(storm.total_executed()) / (wall_ns / 1e9));
  m.set_extra("wall_ms", wall_ns / 1e6);
  m.set_extra("tiles", static_cast<double>(tiles));
  m.set_extra("pending", static_cast<double>(pending));
  m.set_extra("calendar",
              policy == sim::QueuePolicy::kCalendar ? 1.0 : 0.0);
  m.set_extra("parallel", parallel ? 1.0 : 0.0);
  m.set_extra("used_parallel", engine.last_run_parallel() ? 1.0 : 0.0);
  m.set_extra("epochs", static_cast<double>(engine.epochs()));
  m.set_extra("cross_posts", static_cast<double>(engine.cross_posts()));
  m.set_extra("fingerprint_lo", static_cast<double>(fp & 0xffffffffULL));
  m.set_extra("fingerprint_hi", static_cast<double>(fp >> 32));
  const unsigned hw = std::thread::hardware_concurrency();
  m.set_extra("hw_threads", static_cast<double>(hw));
  m.set_extra("parallel_capable", hw >= tiles ? 1.0 : 0.0);
  return m;
}

// End-to-end tiled identity: the tiled_pipeline workload on a 4-core
// platform partitioned into 4 tiles, fingerprinted through
// ExecutionRecorder — the whole-stack version of the storm gate. Three
// runs: the sequential reference, kParallel with force_threads (every
// epoch on threads), and kParallel as users get it (the adaptive
// executor, which must keep this sparse workload on the caller thread).
RunMetrics run_e2e_tiled(const BenchConfig& cfg,
                         sim::TiledEngine::Options opts) {
  const bool parallel = opts.mode == sim::ExecMode::kParallel;
  sim::PlatformConfig pcfg = sim::PlatformConfig::homogeneous(4);
  pcfg.trace_enabled = true;
  sim::apply_tiling(pcfg, 4, /*partition_cores=*/true);
  pcfg.kernel.exec = opts.mode;
  sim::Platform plat(std::move(pcfg));
  plat.engine()->set_force_threads(opts.force_threads);
  vpdebug::ExecutionRecorder rec(plat);
  perf::spawn_workload("tiled_pipeline", plat, /*seed=*/7, cfg.e2e_scale);

  const auto t0 = std::chrono::steady_clock::now();
  plat.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());

  RunMetrics m;
  m.makespan = plat.now();
  const std::uint64_t fp = rec.fingerprint();
  m.set_extra("events", static_cast<double>(rec.events()));
  m.set_extra("wall_ms", wall_ns / 1e6);
  m.set_extra("parallel", parallel ? 1.0 : 0.0);
  m.set_extra("used_parallel",
              plat.engine()->last_run_parallel() ? 1.0 : 0.0);
  m.set_extra("fingerprint_lo", static_cast<double>(fp & 0xffffffffULL));
  m.set_extra("fingerprint_hi", static_cast<double>(fp >> 32));
  const unsigned hw = std::thread::hardware_concurrency();
  m.set_extra("hw_threads", static_cast<double>(hw));
  m.set_extra("parallel_capable", hw >= 4 ? 1.0 : 0.0);
  return m;
}

std::string tiled_label(std::uint32_t tiles, sim::QueuePolicy policy,
                        std::int64_t pending, bool parallel) {
  return strformat("tiled_t%u_%s_p%lld_%s", tiles,
                   sim::queue_policy_name(policy),
                   static_cast<long long>(pending),
                   parallel ? "par" : "seq");
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      // CI smoke configuration: shallow and deep depth, single fan-out.
      cfg.events = 60'000;
      cfg.e2e_scale = 2;
      cfg.pendings = {0, 10'000};
      cfg.fanouts = {1};
      cfg.tiled_events = 60'000;
    }
  }

  harness::Scenario scenario("e13_kernel_throughput");
  // Queue work counters per run label, filled by the runs and printed on
  // stdout only, so BENCH_kernel.json keeps its fields. Every slot exists
  // before the runner starts.
  std::map<std::string, sim::Kernel::QueueCounters> queue_work;
  for (const std::int64_t pending : cfg.pendings)
    for (const std::uint64_t fanout : cfg.fanouts)
      for (const sim::QueuePolicy policy : kPolicies) {
        const std::string label = storm_label(policy, pending, fanout);
        scenario.add_run(label, [&cfg, policy, pending, fanout,
                                 work = &queue_work[label]](
                                    const harness::RunContext&) {
          return run_storm(policy, cfg, pending, fanout, work);
        });
      }
  for (const sim::QueuePolicy policy : kPolicies) {
    const std::string label =
        strformat("e2e_%s", sim::queue_policy_name(policy));
    scenario.add_run(label, [&cfg, policy, work = &queue_work[label]](
                                const harness::RunContext&) {
      return run_e2e(policy, cfg, work);
    });
  }
  for (const std::uint32_t tiles : cfg.tiles_axis)
    for (const sim::QueuePolicy policy : kPolicies)
      for (const std::int64_t pending : cfg.pendings) {
        scenario.add_run(tiled_label(tiles, policy, pending, false),
                         [&cfg, tiles, policy, pending](
                             const harness::RunContext&) {
                           return run_tiled_storm(policy, cfg, tiles,
                                                  pending, false);
                         });
        if (tiles > 1)
          scenario.add_run(tiled_label(tiles, policy, pending, true),
                           [&cfg, tiles, policy, pending](
                               const harness::RunContext&) {
                             return run_tiled_storm(policy, cfg, tiles,
                                                    pending, true);
                           });
      }
  scenario.add_run("e2e_tiled_seq", [&cfg](const harness::RunContext&) {
    return run_e2e_tiled(cfg, {sim::ExecMode::kSequential, false});
  });
  scenario.add_run("e2e_tiled_par", [&cfg](const harness::RunContext&) {
    return run_e2e_tiled(cfg, {sim::ExecMode::kParallel, true});
  });
  scenario.add_run("e2e_tiled_auto", [&cfg](const harness::RunContext&) {
    return run_e2e_tiled(cfg, {sim::ExecMode::kParallel, false});
  });
  // Timing bench: one thread, so runs never contend for cores.
  const auto result = harness::Runner(harness::RunnerConfig{1}).run(scenario);

  std::printf("E13: kernel event throughput, calendar/two-tier queue vs "
              "binary heap (%llu-event storms)\n",
              static_cast<unsigned long long>(cfg.events));
  Table t({"pending", "fanout", "heap Mev/s", "calendar Mev/s", "speedup",
           "identical"});
  bool deterministic = true;
  bool queue_perf_ok = true;
  double deep_speedup = 0.0;
  for (const std::int64_t pending : cfg.pendings) {
    for (const std::uint64_t fanout : cfg.fanouts) {
      const auto* heap = result.find(
          storm_label(sim::QueuePolicy::kBinaryHeap, pending, fanout));
      const auto* cal = result.find(
          storm_label(sim::QueuePolicy::kCalendar, pending, fanout));
      const bool identical =
          heap->metrics.makespan == cal->metrics.makespan &&
          heap->metrics.extra_or("events") == cal->metrics.extra_or("events") &&
          heap->metrics.extra_or("order_hash_lo") ==
              cal->metrics.extra_or("order_hash_lo") &&
          heap->metrics.extra_or("order_hash_hi") ==
              cal->metrics.extra_or("order_hash_hi");
      deterministic = deterministic && identical;
      const double h = heap->metrics.extra_or("events_per_sec");
      const double c = cal->metrics.extra_or("events_per_sec");
      const double speedup = c / h;
      const bool deep_cell =
          pending == cfg.pendings.back() && fanout == cfg.fanouts.front();
      if (deep_cell) deep_speedup = speedup;
      // Perf gate: the calendar queue must not regress below the heap
      // baseline recorded in this same run. Strict on the deep queue (the
      // win case), 25% noise allowance elsewhere.
      queue_perf_ok = queue_perf_ok && speedup >= (deep_cell ? 1.0 : 0.75);
      t.add_row({Table::num(static_cast<std::uint64_t>(pending)),
                 Table::num(fanout), strformat("%.1f", h / 1e6),
                 strformat("%.1f", c / 1e6), strformat("%.2fx", speedup),
                 identical ? "yes" : "NO"});
    }
  }
  t.print("two-tier queue vs heap; 'identical' = same makespan, event "
          "count and order hash");

  // Where the calendar's work went: events served by the delta lane, by
  // the spill heap directly (shallow backlog) and by the wheel, and the
  // spill traffic behind them.
  Table qt({"run", "events", "lane", "spill direct", "wheel",
            "spill pushes", "rebases", "migrated"});
  const auto work_row = [&qt, &queue_work](const std::string& label) {
    const sim::Kernel::QueueCounters& c = queue_work.at(label);
    qt.add_row({label,
                Table::num(c.lane_pops + c.spill_pops + c.wheel_pops),
                Table::num(c.lane_pops), Table::num(c.spill_pops),
                Table::num(c.wheel_pops), Table::num(c.spill_pushes),
                Table::num(c.rebases), Table::num(c.migrated)});
  };
  for (const std::int64_t pending : cfg.pendings)
    for (const std::uint64_t fanout : cfg.fanouts)
      work_row(storm_label(sim::QueuePolicy::kCalendar, pending, fanout));
  work_row("e2e_calendar");
  qt.print("calendar queue work counters (the same in every rerun)");

  const auto* eh = result.find("e2e_heap");
  const auto* ec = result.find("e2e_calendar");
  std::printf("end-to-end (pipeline workload on a 4-core platform): "
              "heap %.0fms, calendar %.0fms (%.2fx), makespans %s\n",
              eh->metrics.extra_or("wall_ms"),
              ec->metrics.extra_or("wall_ms"),
              eh->metrics.extra_or("wall_ms") /
                  ec->metrics.extra_or("wall_ms"),
              eh->metrics.makespan == ec->metrics.makespan
                  ? "identical"
                  : "DIVERGENT");
  deterministic =
      deterministic && eh->metrics.makespan == ec->metrics.makespan;

  // ----------------------------------------------------------- tiles axis
  const unsigned hw = std::thread::hardware_concurrency();
  const std::uint32_t max_tiles = cfg.tiles_axis.back();
  const bool parallel_capable = hw >= max_tiles;
  std::printf("\ntile-partitioned engine (%u hardware threads, parallel "
              "speedup gate %s)\n",
              hw, parallel_capable ? "armed" : "skipped");
  Table tt({"tiles", "policy", "pending", "seq Mev/s", "par Mev/s",
            "par speedup", "identical"});
  bool tiled_identical = true;
  double tiled_speedup = 0.0;
  for (const std::uint32_t tiles : cfg.tiles_axis) {
    for (const sim::QueuePolicy policy : kPolicies) {
      for (const std::int64_t pending : cfg.pendings) {
        const auto* seq =
            result.find(tiled_label(tiles, policy, pending, false));
        const double s = seq->metrics.extra_or("events_per_sec");
        if (tiles == 1) {
          tt.add_row({Table::num(static_cast<std::uint64_t>(tiles)),
                    sim::queue_policy_name(policy),
                      Table::num(static_cast<std::uint64_t>(pending)),
                      strformat("%.1f", s / 1e6), "-", "-", "-"});
          continue;
        }
        const auto* par =
            result.find(tiled_label(tiles, policy, pending, true));
        const bool identical =
            seq->metrics.makespan == par->metrics.makespan &&
            seq->metrics.extra_or("events") ==
                par->metrics.extra_or("events") &&
            seq->metrics.extra_or("fingerprint_lo") ==
                par->metrics.extra_or("fingerprint_lo") &&
            seq->metrics.extra_or("fingerprint_hi") ==
                par->metrics.extra_or("fingerprint_hi");
        tiled_identical = tiled_identical && identical;
        const double p = par->metrics.extra_or("events_per_sec");
        const double speedup = p / s;
        if (tiles == max_tiles &&
            policy == sim::QueuePolicy::kCalendar &&
            pending == cfg.pendings.back())
          tiled_speedup = speedup;
        tt.add_row({Table::num(static_cast<std::uint64_t>(tiles)),
                    sim::queue_policy_name(policy),
                    Table::num(static_cast<std::uint64_t>(pending)),
                    strformat("%.1f", s / 1e6), strformat("%.1f", p / 1e6),
                    strformat("%.2fx", speedup),
                    identical ? "yes" : "NO"});
      }
    }
  }
  tt.print("conservative lookahead epochs; 'identical' = same makespan, "
           "event count and per-tile order fingerprint, sequential vs "
           "threaded");

  const auto* ets = result.find("e2e_tiled_seq");
  const auto* etp = result.find("e2e_tiled_par");
  const auto* eta = result.find("e2e_tiled_auto");
  const auto same_run = [](const auto* a, const auto* b) {
    return a->metrics.makespan == b->metrics.makespan &&
           a->metrics.extra_or("fingerprint_lo") ==
               b->metrics.extra_or("fingerprint_lo") &&
           a->metrics.extra_or("fingerprint_hi") ==
               b->metrics.extra_or("fingerprint_hi");
  };
  const bool e2e_tiled_identical = same_run(ets, etp) && same_run(ets, eta);
  std::printf("end-to-end tiled_pipeline (4 cores / 4 tiles): seq %.1fms, "
              "par %.1fms, auto %.1fms, fingerprints %s\n",
              ets->metrics.extra_or("wall_ms"),
              etp->metrics.extra_or("wall_ms"),
              eta->metrics.extra_or("wall_ms"),
              e2e_tiled_identical ? "identical" : "DIVERGENT");
  tiled_identical = tiled_identical && e2e_tiled_identical;
  // The adaptive executor's end-to-end decision: this workload runs a
  // couple of events per epoch, far below break-even, so threads lose.
  const bool auto_sequential = eta->metrics.extra_or("used_parallel") == 0.0;
  std::printf("adaptive executor: e2e_tiled_auto %s (break-even %llu "
              "events/epoch)\n",
              auto_sequential ? "stayed on the caller thread"
                              : "used threads: DECISION FAIL",
              static_cast<unsigned long long>(
                  sim::TiledEngine::kParallelBreakEven));

  const bool speedup_ok = !parallel_capable || tiled_speedup >= 2.0;
  std::printf("parallel gates: fingerprints %s; %u-tile speedup %.2fx "
              "(>=2x gate %s)\n",
              tiled_identical ? "identical" : "DIVERGENT", max_tiles,
              tiled_speedup,
              parallel_capable ? (speedup_ok ? "pass" : "FAIL")
                               : "skipped: too few hardware threads");

  // Scrub the nondeterministic wall-clock fields (and the throughputs
  // derived from them) so the exported document is byte-identical across
  // reruns — the timing lives on stdout and in this process's gates.
  const harness::ScenarioResult scrubbed = bench::scrub_wall_clock(result);
  if (const auto s = harness::write_json("BENCH_kernel.json", {scrubbed});
      !s.ok())
    std::printf("warning: %s\n", s.error().to_string().c_str());
  std::printf("expected shape: speedup grows with pending depth (the heap "
              "pays O(log n)\nper event); >=2x at 10k pending "
              "(measured %.2fx, floor %s); every row identical.\n",
              deep_speedup, queue_perf_ok ? "held" : "BROKEN");
  return deterministic && queue_perf_ok && tiled_identical && speedup_ok &&
                 auto_sequential
             ? 0
             : 1;
}
