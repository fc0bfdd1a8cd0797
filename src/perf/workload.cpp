#include "perf/workload.hpp"

#include <memory>

#include "common/strings.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/tilelink.hpp"

namespace rw::perf {

namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- pipeline

struct PipelineState {
  std::vector<std::unique_ptr<sim::Channel<std::uint64_t>>> chans;
};

sim::Process pipeline_source(sim::Platform& plat,
                             std::shared_ptr<PipelineState> st,
                             std::uint64_t items) {
  for (std::uint64_t i = 0; i < items; ++i) {
    co_await sim::delay(plat.kernel(), nanoseconds(500));
    co_await st->chans.front()->send(i);
  }
}

sim::Process pipeline_stage(sim::Platform& plat,
                            std::shared_ptr<PipelineState> st,
                            std::size_t stage, std::size_t core_idx,
                            std::uint64_t items, std::uint64_t seed) {
  sim::Core& core = plat.core(core_idx);
  std::uint64_t rng = seed ^ (0x51a9e * (stage + 1));
  const std::string label = strformat("stage%zu", stage);
  for (std::uint64_t i = 0; i < items; ++i) {
    const std::uint64_t v = co_await st->chans[stage]->recv();
    co_await core.compute(2000 + splitmix(rng) % 3000, label);
    // One shared-memory round trip per item: the stage's "state" load.
    const sim::Addr a = plat.shared_base() + (v % 1024) * 8;
    plat.memory().write_u64(core.id(), a, v);
    (void)plat.memory().read_u64(core.id(), a);
    co_await st->chans[stage + 1]->send(v);
  }
}

sim::Process pipeline_sink(sim::Platform& /*plat*/,
                           std::shared_ptr<PipelineState> st,
                           std::uint64_t items) {
  for (std::uint64_t i = 0; i < items; ++i)
    (void)co_await st->chans.back()->recv();
}

void spawn_pipeline(sim::Platform& plat, std::uint64_t seed,
                    std::uint64_t scale) {
  const std::size_t stages = std::min<std::size_t>(plat.core_count(), 4);
  const std::uint64_t items = 16 * scale;
  auto st = std::make_shared<PipelineState>();
  for (std::size_t i = 0; i <= stages; ++i)
    st->chans.push_back(std::make_unique<sim::Channel<std::uint64_t>>(
        plat.kernel(), 2, strformat("pipe%zu", i)));
  sim::spawn(plat.kernel(), pipeline_source(plat, st, items));
  for (std::size_t s = 0; s < stages; ++s)
    sim::spawn(plat.kernel(),
               pipeline_stage(plat, st, s, s % plat.core_count(), items,
                              seed));
  sim::spawn(plat.kernel(), pipeline_sink(plat, st, items));
}

// ---------------------------------------------------------------- forkjoin

struct ForkJoinState {
  std::vector<std::unique_ptr<sim::Channel<std::uint64_t>>> work;
  std::unique_ptr<sim::Channel<std::uint64_t>> done;
};

sim::Process forkjoin_worker(sim::Platform& plat,
                             std::shared_ptr<ForkJoinState> st,
                             std::size_t worker, std::uint64_t rounds,
                             std::uint64_t seed) {
  sim::Core& core = plat.core(worker);
  std::uint64_t rng = seed ^ (0xf02c * (worker + 1));
  for (std::uint64_t r = 0; r < rounds; ++r) {
    (void)co_await st->work[worker]->recv();
    co_await core.compute(8000 + splitmix(rng) % 4000, "parallel");
    // Publish the partial result to shared memory for the join.
    plat.memory().write_u64(core.id(),
                            plat.shared_base() + 8 * worker, r);
    co_await st->done->send(worker);
  }
}

sim::Process forkjoin_master(sim::Platform& plat,
                             std::shared_ptr<ForkJoinState> st,
                             std::uint64_t rounds, std::uint64_t seed) {
  sim::Core& core = plat.core(0);
  std::uint64_t rng = seed ^ 0xabcd;
  const std::size_t workers = st->work.size();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    co_await core.compute(12000 + splitmix(rng) % 2000, "serial");
    for (std::size_t w = 0; w < workers; ++w)
      co_await st->work[w]->send(r);
    for (std::size_t w = 0; w < workers; ++w) {
      const std::uint64_t who = co_await st->done->recv();
      (void)plat.memory().read_u64(core.id(),
                                   plat.shared_base() + 8 * who);
    }
  }
}

void spawn_forkjoin(sim::Platform& plat, std::uint64_t seed,
                    std::uint64_t scale) {
  const std::size_t workers = plat.core_count();
  const std::uint64_t rounds = 4 * scale;
  auto st = std::make_shared<ForkJoinState>();
  for (std::size_t w = 0; w < workers; ++w)
    st->work.push_back(std::make_unique<sim::Channel<std::uint64_t>>(
        plat.kernel(), 1, strformat("fork%zu", w)));
  st->done = std::make_unique<sim::Channel<std::uint64_t>>(
      plat.kernel(), workers, "join");
  for (std::size_t w = 0; w < workers; ++w)
    sim::spawn(plat.kernel(),
               forkjoin_worker(plat, st, w, rounds, seed));
  sim::spawn(plat.kernel(), forkjoin_master(plat, st, rounds, seed));
}

// ----------------------------------------------------------- shared_hammer

sim::Process hammer_core(sim::Platform& plat, std::size_t idx,
                         std::uint64_t rounds, std::uint64_t seed) {
  sim::Core& core = plat.core(idx);
  std::uint64_t rng = seed ^ (0x4a11 * (idx + 1));
  const std::size_t n = plat.core_count();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    co_await core.compute(500 + splitmix(rng) % 500, "hammer");
    // A burst of shared-memory traffic: the centralized-construct stressor.
    for (int k = 0; k < 16; ++k) {
      const sim::Addr a = plat.shared_base() + (splitmix(rng) % 4096) * 8;
      plat.memory().write_u64(core.id(), a, r);
      (void)plat.memory().read_u64(core.id(), a);
    }
    if (n > 1 && r % 4 == 3) {
      // Push a message across the fabric to the neighbour.
      const auto [start, finish] = plat.interconnect().reserve_transfer(
          core.id(), plat.core((idx + 1) % n).id(), 256,
          plat.kernel().now());
      co_await sim::delay(plat.kernel(), finish - plat.kernel().now());
    }
  }
}

sim::Process hammer_dma_kick(sim::Platform& plat, std::uint64_t scale) {
  // One background DMA sweep inside the shared region per scale unit.
  for (std::uint64_t i = 0; i < scale; ++i) {
    co_await sim::delay(plat.kernel(), microseconds(5));
    if (!plat.dma().busy())
      plat.dma().start(plat.shared_base(),
                       plat.shared_base() + 128 * 1024, 4096);
  }
}

void spawn_hammer(sim::Platform& plat, std::uint64_t seed,
                  std::uint64_t scale) {
  const std::uint64_t rounds = 8 * scale;
  for (std::size_t c = 0; c < plat.core_count(); ++c)
    sim::spawn(plat.kernel(), hammer_core(plat, c, rounds, seed));
  sim::spawn(plat.kernel(), hammer_dma_kick(plat, scale));
}

// ------------------------------------------------------------ tiled_pipeline

struct TiledPipeState {
  std::vector<std::unique_ptr<sim::TileLink<std::uint64_t>>> links;
};

// One pipeline stage per core. Unlike `pipeline`, the stages communicate
// over TileLinks (fabric-timed, tile-safe) and keep their state in their
// own scratchpad — the strict-locality shape that partitions cleanly into
// tiles. On an untiled platform the links collapse to plain kernel events
// with the same timing, so the workload runs (and means the same thing)
// for every num_tiles.
sim::Process tiled_stage(sim::Platform& plat,
                         std::shared_ptr<TiledPipeState> st, std::size_t idx,
                         std::uint64_t items, std::uint64_t seed) {
  sim::Core& core = plat.core(idx);
  sim::Kernel& k = plat.tile_kernel(plat.tile_of_core(idx));
  const std::size_t last = plat.core_count() - 1;
  const bool has_spm = plat.config().cores[idx].scratchpad_bytes >= 4096;
  const sim::Addr spm = plat.scratchpad_base(core.id());
  std::uint64_t rng = seed ^ (0x7e11ull * (idx + 1));
  const std::string label = strformat("tstage%zu", idx);
  for (std::uint64_t i = 0; i < items; ++i) {
    std::uint64_t v = i;
    if (idx > 0) {
      v = co_await st->links[idx - 1]->recv();
    } else {
      co_await sim::delay(k, nanoseconds(400));
    }
    co_await core.compute(1500 + splitmix(rng) % 2500, label);
    if (has_spm) {
      // Local state round trip: a stage touches only its own scratchpad —
      // the locality the tiled memory guard turns into a hard rule.
      plat.memory().write_u64(core.id(), spm + (v % 512) * 8, v);
      v += plat.memory().read_u64(core.id(), spm + (v % 512) * 8);
    }
    if (idx < last) co_await st->links[idx]->send(v);
  }
}

void spawn_tiled_pipeline(sim::Platform& plat, std::uint64_t seed,
                          std::uint64_t scale) {
  const std::size_t n = plat.core_count();
  const std::uint64_t items = 16 * scale;
  auto st = std::make_shared<TiledPipeState>();
  for (std::size_t i = 0; i + 1 < n; ++i)
    st->links.push_back(std::make_unique<sim::TileLink<std::uint64_t>>(
        plat, plat.core(i).id(), plat.core(i + 1).id(), /*capacity=*/2,
        /*bytes_per_msg=*/256, strformat("tlink%zu", i)));
  for (std::size_t i = 0; i < n; ++i)
    sim::spawn(plat.tile_kernel(plat.tile_of_core(i)),
               tiled_stage(plat, st, i, items, seed));
}

}  // namespace

const std::vector<WorkloadInfo>& workload_registry() {
  static const std::vector<WorkloadInfo> kRegistry = {
      {"pipeline",
       "software pipeline across cores; communication-bound stages"},
      {"forkjoin",
       "serial master + parallel workers; Amdahl-shaped utilization"},
      {"shared_hammer",
       "all cores burst shared memory and fabric; contention-bound"},
      {"tiled_pipeline",
       "per-core stages over fabric-timed tile links; partitions into "
       "tiles with no shared state"},
  };
  return kRegistry;
}

bool is_workload(std::string_view name) {
  for (const auto& w : workload_registry())
    if (w.name == name) return true;
  return false;
}

bool spawn_workload(std::string_view name, sim::Platform& platform,
                    std::uint64_t seed, std::uint64_t scale) {
  if (scale == 0) scale = 1;
  if (name == "pipeline") {
    spawn_pipeline(platform, seed, scale);
  } else if (name == "forkjoin") {
    spawn_forkjoin(platform, seed, scale);
  } else if (name == "shared_hammer") {
    spawn_hammer(platform, seed, scale);
  } else if (name == "tiled_pipeline") {
    spawn_tiled_pipeline(platform, seed, scale);
  } else {
    return false;
  }
  return true;
}

}  // namespace rw::perf
