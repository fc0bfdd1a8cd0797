// Tile-partitioned parallel kernel (sim/parallel.hpp): config validation,
// conservative-window mechanics on deliberately tiny calendar wheels, the
// racing-mailbox stress the CI TSan job runs with real threads, the
// adaptive executor's sparse/dense/mid-run decision, and the headline
// contract — ExecMode::kParallel is bit-identical to the kSequential
// reference across the whole workload/fault corpus.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_budget.hpp"
#include "fault/scenario.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"
#include "sim/platform.hpp"
#include "vpdebug/replay.hpp"

namespace {

using namespace rw;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// RAII guard for the process-wide thread budget test hook.
struct BudgetGuard {
  explicit BudgetGuard(std::uint32_t total)
      : prev(common::thread_budget_set_total_for_test(total)) {}
  ~BudgetGuard() { common::thread_budget_set_total_for_test(prev); }
  std::uint32_t prev;
};

// ------------------------------------------------------------- validation

TEST(TilingValidation, RejectsZeroTiles) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
  cfg.kernel.num_tiles = 0;
  const Status st = cfg.validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("num_tiles"), std::string::npos);
}

TEST(TilingValidation, RejectsMoreTilesThanCores) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(2);
  cfg.kernel.num_tiles = 3;
  cfg.kernel.exec = sim::ExecMode::kParallel;
  const Status st = cfg.validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("core count"), std::string::npos);
  EXPECT_THROW(sim::Platform{cfg}, std::invalid_argument);
}

TEST(TilingValidation, RejectsOutOfRangeCoreTile) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
  cfg.kernel.num_tiles = 2;
  cfg.cores[3].tile = 2;  // only tiles 0 and 1 exist
  const Status st = cfg.validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("core3"), std::string::npos);
}

TEST(TilingValidation, RejectsZeroLookaheadFabric) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
  sim::apply_tiling(cfg, 2, /*partition_cores=*/true);
  cfg.bus.arbitration_cycles = 0;  // bus latency floor collapses to 0
  ASSERT_EQ(sim::min_cross_tile_latency(cfg), 0u);
  const Status st = cfg.validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("lookahead"), std::string::npos);
  EXPECT_THROW(sim::Platform{cfg}, std::invalid_argument);
}

TEST(TilingValidation, SingleTileAlwaysValid) {
  const sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(1);
  EXPECT_TRUE(cfg.validate().ok());
}

TEST(TilingValidation, ApplyTilingClampsToCoreCount) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(2);
  sim::apply_tiling(cfg, 8, /*partition_cores=*/true);
  EXPECT_EQ(cfg.kernel.num_tiles, 2u);
  EXPECT_TRUE(cfg.validate().ok());
  // Contiguous balanced blocks.
  EXPECT_EQ(cfg.cores[0].tile, 0u);
  EXPECT_EQ(cfg.cores[1].tile, 1u);
}

// ------------------------------------------------- tiny-wheel storm soups

// Deterministic per-tile soup for bare-kernel engine tests. Every event
// folds (id, now) into its tile's hash and schedules children, a slice of
// them cross-tile landing exactly `lookahead` deep — the horizon boundary
// for the deliberately tiny calendar wheels below, so every barrier drain
// exercises the spill-rebase path.
struct Soup {
  struct Tile {
    sim::Kernel* k = nullptr;
    std::uint64_t budget = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t order_hash = 1469598103934665603ULL;
  };
  sim::TiledEngine* engine = nullptr;
  DurationPs lookahead = 0;
  std::vector<Tile> tiles;

  struct Ev {
    Soup* s;
    std::uint32_t tile;
    std::uint64_t id;
    void operator()() const { s->fire(tile, id); }
  };

  void fire(std::uint32_t t, std::uint64_t id) {
    Tile& tl = tiles[t];
    ++tl.executed;
    tl.order_hash = (tl.order_hash ^ id) * 1099511628211ULL;
    tl.order_hash = (tl.order_hash ^ tl.k->now()) * 1099511628211ULL;
    const auto n = static_cast<std::uint32_t>(tiles.size());
    for (int c = 0; c < 3 && tl.scheduled < tl.budget; ++c) {
      const std::uint64_t child =
          (static_cast<std::uint64_t>(t) << 40) | tl.scheduled++;
      const std::uint64_t h = mix64(child);
      const int pri = static_cast<int>(h % 3) - 1;
      if (n > 1 && h % 4 == 0) {
        const std::uint32_t dst =
            (t + 1 + static_cast<std::uint32_t>((h >> 16) % (n - 1))) % n;
        // Exactly lookahead-deep half the time (the earliest legal instant,
        // and the wheel-horizon edge), jittered otherwise.
        const TimePs at =
            tl.k->now() + lookahead + (h % 2 == 0 ? 0 : h % 97);
        engine->post(t, dst, at, Ev{this, dst, child}, pri);
      } else {
        tl.k->schedule_in(h % 61, Ev{this, t, child}, pri);
      }
    }
  }

  [[nodiscard]] std::vector<std::uint64_t> digest() const {
    std::vector<std::uint64_t> d;
    for (const Tile& t : tiles) {
      d.push_back(t.executed);
      d.push_back(t.order_hash);
      d.push_back(t.k->now());
    }
    return d;
  }
};

// Soup start per tile. The default 4 roots make the first epochs sparse;
// `sparse_epochs` prepends that many lone events per tile, one lookahead
// apart (one sparse epoch each), before the roots.
struct SoupShape {
  std::uint64_t roots = 4;
  std::uint32_t sparse_epochs = 0;
};

// Every tile starts with break-even roots inside the first window, so
// every epoch from the first on is dense enough for threads.
constexpr SoupShape kDenseSoup{sim::TiledEngine::kParallelBreakEven, 0};

struct SoupRun {
  std::vector<std::uint64_t> digest;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  bool used_parallel = false;
};

constexpr sim::TiledEngine::Options kSeqOpts{sim::ExecMode::kSequential,
                                             false};
constexpr sim::TiledEngine::Options kAutoOpts{sim::ExecMode::kParallel,
                                              false};
constexpr sim::TiledEngine::Options kForcedOpts{sim::ExecMode::kParallel,
                                                true};

// Run one soup over `tiles` kernels with a tiny wheel (16 ps buckets, 8 of
// them = 128 ps horizon — far smaller than the event span, so cross posts
// and rebase churn constantly) and return the per-tile digests.
SoupRun run_soup(std::uint32_t tiles, std::uint64_t seed,
                 sim::TiledEngine::Options opts, const SoupShape& shape = {}) {
  constexpr DurationPs kLookahead = 128;
  sim::KernelConfig kcfg;
  kcfg.policy = sim::QueuePolicy::kCalendar;
  kcfg.bucket_width_log2 = 4;
  kcfg.num_buckets_log2 = 3;
  std::vector<std::unique_ptr<sim::Kernel>> kernels;
  std::vector<sim::Kernel*> ptrs;
  for (std::uint32_t t = 0; t < tiles; ++t) {
    kernels.push_back(std::make_unique<sim::Kernel>(kcfg));
    ptrs.push_back(kernels.back().get());
  }
  sim::TiledEngine engine(ptrs, kLookahead, opts);
  Soup soup;
  soup.engine = &engine;
  soup.lookahead = kLookahead;
  soup.tiles.resize(tiles);
  const TimePs roots_at = shape.sparse_epochs * kLookahead;
  for (std::uint32_t t = 0; t < tiles; ++t) {
    Soup::Tile& tl = soup.tiles[t];
    tl.k = ptrs[t];
    tl.budget = 4000;
    for (std::uint32_t e = 0; e < shape.sparse_epochs; ++e)
      tl.k->schedule_at(e * kLookahead, [&tl] {
        tl.order_hash = (tl.order_hash ^ tl.k->now()) * 1099511628211ULL;
      });
    for (std::uint64_t r = 0; r < shape.roots; ++r)
      tl.k->schedule_at(
          roots_at + mix64(seed ^ (t * 977) ^ r) % 50,
          Soup::Ev{&soup, t,
                   (static_cast<std::uint64_t>(t) << 40) | tl.scheduled++});
  }
  engine.run();
  return {soup.digest(), engine.events_executed(), engine.epochs(),
          engine.last_run_parallel()};
}

TEST(TiledEngine, TinyWheelSpillRebaseIdentity) {
  for (const std::uint32_t tiles : {2u, 3u}) {
    for (const std::uint64_t seed : {1ull, 42ull, 1234ull}) {
      const SoupRun seq = run_soup(tiles, seed, kSeqOpts);
      const SoupRun par = run_soup(tiles, seed, kForcedOpts);
      EXPECT_TRUE(par.used_parallel);
      EXPECT_EQ(seq.digest, par.digest) << "tiles=" << tiles
                                        << " seed=" << seed;
    }
  }
}

TEST(TiledEngine, SoupActuallyExecutesAndReruns) {
  const SoupRun a = run_soup(3, 42, kSeqOpts);
  EXPECT_GE(a.events, 3u * 4000u);  // every scheduled child executed
  const SoupRun b = run_soup(3, 42, kSeqOpts);
  EXPECT_EQ(a.digest, b.digest);  // rerun-stable, not just mode-stable
}

// The CI TSan job runs this with real threads: every tile posts to every
// other tile every event, so all (src,dst) mailboxes and the barrier
// protocol are exercised under maximum contention.
TEST(TiledEngine, RacingMailboxesUnderThreads) {
  constexpr DurationPs kLookahead = 100;
  constexpr std::uint32_t kTiles = 4;
  struct Racer {
    sim::TiledEngine* engine = nullptr;
    struct Tile {
      sim::Kernel* k = nullptr;
      std::uint64_t left = 0;
      std::uint64_t hash = 1469598103934665603ULL;
    };
    std::vector<Tile> tiles;
    void fire(std::uint32_t t, std::uint64_t id) {
      Tile& tl = tiles[t];
      tl.hash = (tl.hash ^ id ^ tl.k->now()) * 1099511628211ULL;
      if (tl.left == 0) return;
      --tl.left;
      for (std::uint32_t dst = 0; dst < tiles.size(); ++dst) {
        if (dst == t) continue;
        engine->post(t, dst, tl.k->now() + kLookahead + (id + dst) % 7,
                     [this, dst, id] { fire(dst, mix64(id ^ dst)); },
                     static_cast<int>(id % 3) - 1);
      }
    }
  };
  auto run = [&](bool parallel) {
    std::vector<std::unique_ptr<sim::Kernel>> kernels;
    std::vector<sim::Kernel*> ptrs;
    for (std::uint32_t t = 0; t < kTiles; ++t) {
      kernels.push_back(std::make_unique<sim::Kernel>());
      ptrs.push_back(kernels.back().get());
    }
    sim::TiledEngine engine(
        ptrs, kLookahead,
        {parallel ? sim::ExecMode::kParallel : sim::ExecMode::kSequential,
         /*force_threads=*/true});
    Racer racer;
    racer.engine = &engine;
    racer.tiles.resize(kTiles);
    for (std::uint32_t t = 0; t < kTiles; ++t) {
      racer.tiles[t].k = ptrs[t];
      racer.tiles[t].left = 300;
      ptrs[t]->schedule_at(t % 3, [&racer, t] { racer.fire(t, t + 1); });
    }
    engine.run();
    std::vector<std::uint64_t> out;
    for (const auto& t : racer.tiles) {
      out.push_back(t.hash);
      out.push_back(t.k->events_executed());
    }
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(TiledEngine, RunUntilAdvancesAllTiles) {
  std::vector<std::unique_ptr<sim::Kernel>> kernels;
  std::vector<sim::Kernel*> ptrs;
  for (int t = 0; t < 2; ++t) {
    kernels.push_back(std::make_unique<sim::Kernel>());
    ptrs.push_back(kernels.back().get());
  }
  sim::TiledEngine engine(ptrs, /*lookahead=*/1000,
                          {sim::ExecMode::kSequential, false});
  int fired = 0;
  ptrs[0]->schedule_at(500, [&] {
    ++fired;
    engine.post(0, 1, ptrs[0]->now() + 1000, [&] { ++fired; });
  });
  engine.run_until(5000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ptrs[0]->now(), 5000u);
  EXPECT_EQ(ptrs[1]->now(), 5000u);
  EXPECT_EQ(engine.now(), 5000u);
}

TEST(TiledEngine, BudgetExhaustionFallsBackSequentially) {
  const BudgetGuard guard(0);  // no permits: kParallel must degrade
  // Dense from the first epoch, so the engine does ask for threads.
  const SoupRun fallback = run_soup(3, 7, kAutoOpts, kDenseSoup);
  EXPECT_FALSE(fallback.used_parallel);  // it refused to spawn workers
  const SoupRun reference = run_soup(3, 7, kSeqOpts, kDenseSoup);
  EXPECT_EQ(fallback.digest, reference.digest);
}

// ------------------------------------------------------ adaptive executor

TEST(AdaptiveExecutor, DenseSoupRunsOnThreads) {
  const BudgetGuard guard(8);
  for (const std::uint32_t tiles : {2u, 4u}) {
    const SoupRun seq = run_soup(tiles, 5, kSeqOpts, kDenseSoup);
    const SoupRun par = run_soup(tiles, 5, kAutoOpts, kDenseSoup);
    EXPECT_FALSE(seq.used_parallel);
    EXPECT_TRUE(par.used_parallel) << "tiles=" << tiles;
    EXPECT_EQ(seq.digest, par.digest) << "tiles=" << tiles;
    EXPECT_EQ(seq.epochs, par.epochs) << "tiles=" << tiles;
  }
}

TEST(AdaptiveExecutor, SwitchesToThreadsMidRun) {
  const BudgetGuard guard(8);
  SoupShape shape = kDenseSoup;
  shape.sparse_epochs = 20;  // 20 epochs of one event per tile first
  const SoupRun seq = run_soup(4, 9, kSeqOpts, shape);
  const SoupRun par = run_soup(4, 9, kAutoOpts, shape);
  EXPECT_GT(seq.epochs, 20u);
  EXPECT_TRUE(par.used_parallel);
  EXPECT_EQ(seq.digest, par.digest);
  EXPECT_EQ(seq.events, par.events);
  EXPECT_EQ(seq.epochs, par.epochs);
}

TEST(AdaptiveExecutor, SparseRunHoldsNoPermits) {
  const BudgetGuard guard(8);
  const std::uint32_t free_before = common::thread_budget_available();
  std::vector<std::unique_ptr<sim::Kernel>> kernels;
  std::vector<sim::Kernel*> ptrs;
  for (int t = 0; t < 4; ++t) {
    kernels.push_back(std::make_unique<sim::Kernel>());
    ptrs.push_back(kernels.back().get());
  }
  sim::TiledEngine engine(ptrs, /*lookahead=*/1000, kAutoOpts);
  std::uint32_t free_during = 0;
  ptrs[0]->schedule_at(500, [&] {
    engine.post(0, 3, ptrs[0]->now() + 1000, [&] {
      free_during = common::thread_budget_available();
    });
  });
  engine.run();
  EXPECT_EQ(engine.epochs(), 2u);
  EXPECT_FALSE(engine.last_run_parallel());
  EXPECT_EQ(free_during, free_before);  // nothing acquired up front
  EXPECT_EQ(common::thread_budget_available(), free_before);
}

// ------------------------------------------------------ platform corpus

struct CorpusRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t tile0_fingerprint = 0;
  std::uint64_t events = 0;
  bool used_parallel = false;
};

CorpusRun run_corpus(const sim::PlatformConfig& cfg, const std::string& wl,
                     std::uint64_t seed, bool profile, bool force_threads) {
  sim::Platform p(cfg);
  if (force_threads && p.engine() != nullptr)
    p.engine()->set_force_threads(true);
  vpdebug::ExecutionRecorder rec(p);
  std::optional<perf::PerfSession> sess;
  if (profile) sess.emplace(p, perf::PerfConfig{});
  perf::spawn_workload(wl, p, seed, /*scale=*/2);
  p.run();
  return {rec.fingerprint(), rec.tile_fingerprint(0), rec.events(),
          p.engine() != nullptr && p.engine()->last_run_parallel()};
}

// tiled_pipeline is the one workload whose state partitions into tiles
// (tile-local scratchpads and TileLinks); the others share state on tile 0.
bool tileable(const std::string& workload) {
  return workload == "tiled_pipeline";
}

sim::PlatformConfig corpus_config(std::uint32_t tiles, bool partition) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
  cfg.trace_enabled = true;
  if (tiles > 1) {
    sim::apply_tiling(cfg, tiles, partition);
    cfg.kernel.exec = sim::ExecMode::kSequential;  // set per run below
  }
  return cfg;
}

// The headline contract: for every workload, seed and ±profiler, the
// parallel execution of a tiled platform is bit-identical (ExecutionRecorder
// fingerprints) to the sequential reference.
TEST(ParallelCorpus, SequentialVsParallelFingerprints) {
  for (const auto& wl : perf::workload_registry()) {
    const bool partition = tileable(wl.name);
    for (const std::uint64_t seed : {3ull, 99ull}) {
      for (const bool profile : {false, true}) {
        sim::PlatformConfig cfg = corpus_config(4, partition);
        const CorpusRun seq =
            run_corpus(cfg, wl.name, seed, profile, /*force_threads=*/false);
        cfg.kernel.exec = sim::ExecMode::kParallel;
        const CorpusRun par =
            run_corpus(cfg, wl.name, seed, profile, /*force_threads=*/true);
        EXPECT_TRUE(par.used_parallel) << wl.name;
        EXPECT_EQ(seq.fingerprint, par.fingerprint)
            << wl.name << " seed=" << seed << " profile=" << profile;
        EXPECT_EQ(seq.events, par.events) << wl.name;
      }
    }
  }
}

// tiled_pipeline runs a couple of events per epoch: far below break-even,
// so kParallel without force_threads never leaves the caller thread.
TEST(AdaptiveExecutor, SparseTiledPipelineStaysOnCallerThread) {
  const BudgetGuard guard(8);
  for (const std::uint64_t seed : {3ull, 99ull}) {
    sim::PlatformConfig cfg = corpus_config(4, /*partition=*/true);
    const CorpusRun seq =
        run_corpus(cfg, "tiled_pipeline", seed, false, false);
    cfg.kernel.exec = sim::ExecMode::kParallel;
    const CorpusRun par =
        run_corpus(cfg, "tiled_pipeline", seed, false, false);
    EXPECT_FALSE(par.used_parallel) << "seed=" << seed;
    EXPECT_EQ(seq.fingerprint, par.fingerprint) << "seed=" << seed;
    EXPECT_EQ(seq.events, par.events) << "seed=" << seed;
  }
}

// Workloads whose cores all stay on tile 0 (the legacy shared-state ones)
// must execute the exact same tile-0 event stream on a tiled platform as
// on the plain single-kernel platform: the empty sibling tiles are inert.
TEST(ParallelCorpus, AllTileZeroMatchesPlainKernel) {
  for (const auto& wl : perf::workload_registry()) {
    if (tileable(wl.name)) continue;
    const CorpusRun plain = run_corpus(corpus_config(1, false), wl.name,
                                       /*seed=*/3, /*profile=*/false, false);
    const CorpusRun tiled =
        run_corpus(corpus_config(4, false), wl.name, 3, false, false);
    EXPECT_EQ(plain.fingerprint, tiled.tile0_fingerprint) << wl.name;
    EXPECT_EQ(plain.events, tiled.events) << wl.name;
  }
}

TEST(ParallelCorpus, CrossTileMemoryAccessThrows) {
  sim::PlatformConfig cfg = corpus_config(4, /*partition=*/true);
  sim::Platform p(cfg);
  // Core 0 (tile 0) touching core 3's scratchpad (tile 3) breaks the
  // no-shared-state invariant the identity proof rests on — hard error.
  const sim::Addr foreign = p.scratchpad_base(p.core(3).id());
  EXPECT_THROW((void)p.memory().read_u64(p.core(0).id(), foreign),
               std::logic_error);
}

// --------------------------------------------------------- fault corpus

fault::ScenarioOutcome run_fault(std::uint32_t threads) {
  fault::ScenarioConfig cfg;
  cfg.cores = 4;
  cfg.seed = 11;
  cfg.items = 24;
  cfg.fault_rate_per_ms = 40.0;
  cfg.policy = fault::RecoveryPolicy::kWatchdogRestart;
  cfg.threads = threads;
  return fault::run_fault_scenario(cfg);
}

TEST(ParallelCorpus, FaultScenarioIdenticalAcrossThreads) {
  const BudgetGuard guard(8);  // make real worker threads available
  const fault::ScenarioOutcome one = run_fault(1);
  const fault::ScenarioOutcome four = run_fault(4);
  EXPECT_EQ(one.items_done, four.items_done);
  EXPECT_EQ(one.makespan, four.makespan);
  EXPECT_EQ(one.faults_injected, four.faults_injected);
  EXPECT_EQ(one.crashes, four.crashes);
  EXPECT_EQ(one.recoveries, four.recoveries);
  const auto& ra = one.timeline.records();
  const auto& rb = four.timeline.records();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].time, rb[i].time) << i;
    EXPECT_EQ(ra[i].what, rb[i].what) << i;
    EXPECT_EQ(ra[i].target, rb[i].target) << i;
  }
}

}  // namespace
