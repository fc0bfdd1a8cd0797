#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <stdexcept>
#include <thread>

#include "common/strings.hpp"
#include "common/thread_budget.hpp"
#include "sim/platform.hpp"

namespace rw::sim {

DurationPs min_cross_tile_latency(const PlatformConfig& cfg) {
  switch (cfg.interconnect) {
    case PlatformConfig::Icn::kSharedBus:
      return cycles_to_ps(cfg.bus.arbitration_cycles, cfg.bus.frequency);
    case PlatformConfig::Icn::kMesh: return cfg.mesh.hop_latency;
  }
  return 0;
}

Status validate_tiling(const PlatformConfig& cfg) {
  const std::uint32_t tiles = cfg.kernel.num_tiles;
  if (tiles == 0)
    return make_error("KernelConfig: num_tiles must be at least 1");
  if (tiles > cfg.cores.size())
    return make_error(strformat(
        "KernelConfig: num_tiles (%u) exceeds the platform's core count (%zu)",
        tiles, cfg.cores.size()));
  for (std::size_t i = 0; i < cfg.cores.size(); ++i) {
    if (cfg.cores[i].tile >= tiles)
      return make_error(
          strformat("core%zu is assigned to tile %u but num_tiles is %u", i,
                    cfg.cores[i].tile, tiles));
  }
  if (tiles > 1 && min_cross_tile_latency(cfg) == 0)
    return make_error(
        "tiled execution requires a positive cross-tile lookahead, but the "
        "fabric config yields a 0 ps minimum latency (conservative sync "
        "would degenerate to lockstep)");
  return Status::ok_status();
}

void apply_tiling(PlatformConfig& cfg, std::uint32_t num_tiles,
                  bool partition_cores) {
  const std::size_t n = cfg.cores.size();
  if (num_tiles > n) num_tiles = static_cast<std::uint32_t>(n);
  if (num_tiles <= 1) return;
  cfg.kernel.num_tiles = num_tiles;
  cfg.kernel.exec = ExecMode::kParallel;
  for (std::size_t i = 0; i < n; ++i)
    cfg.cores[i].tile =
        partition_cores
            ? static_cast<std::uint32_t>(i * num_tiles / n)
            : 0;
}

TiledEngine::TiledEngine(std::vector<Kernel*> kernels, DurationPs lookahead,
                         Options opts)
    : tiles_(std::move(kernels)), lookahead_(lookahead), opts_(opts) {
  if (tiles_.empty())
    throw std::invalid_argument("TiledEngine: needs at least one tile");
  for (const Kernel* k : tiles_)
    if (k == nullptr)
      throw std::invalid_argument("TiledEngine: null tile kernel");
  if (lookahead_ == 0)
    throw std::invalid_argument("TiledEngine: lookahead must be positive");
  mail_.resize(tiles_.size() * tiles_.size());
  mail_seq_.assign(tiles_.size() * tiles_.size(), 0);
  posted_.assign(tiles_.size(), 0);
  window_live_only_.assign(tiles_.size(), 0);
  tile_next_.assign(tiles_.size(), UINT64_MAX);
}

std::uint64_t TiledEngine::events_executed() const {
  std::uint64_t n = 0;
  for (const Kernel* k : tiles_) n += k->events_executed();
  return n;
}

TimePs TiledEngine::now() const {
  TimePs t = 0;
  for (const Kernel* k : tiles_) t = std::max(t, k->now());
  return t;
}

void TiledEngine::post(std::uint32_t src, std::uint32_t dst, TimePs t,
                       EventFn fn, int priority, bool daemon) {
  assert(src < tiles_.size() && dst < tiles_.size() && src != dst);
  // The conservative contract: a cross-tile message must never land inside
  // a window the current epoch may still execute.
  assert(t >= tiles_[src]->now() + lookahead_);
  const std::size_t pair = src * tiles_.size() + dst;
  mail_[pair].push_back(
      Mail{t, priority, src, mail_seq_[pair]++, std::move(fn), daemon});
  posted_[src] = 1;
}

void TiledEngine::drain_mailboxes() {
  // Most sparse epochs post nothing: skip the T x T scan.
  if (std::find(posted_.begin(), posted_.end(), 1) == posted_.end()) return;
  std::fill(posted_.begin(), posted_.end(), 0);
  const std::size_t t = tiles_.size();
  for (std::size_t dst = 0; dst < t; ++dst) {
    merge_scratch_.clear();
    for (std::size_t src = 0; src < t; ++src) {
      auto& box = mail_[src * t + dst];
      for (auto& m : box) merge_scratch_.push_back(std::move(m));
      box.clear();
    }
    if (merge_scratch_.empty()) continue;
    // (time, priority, src, seq) is a strict total order — (src, seq) is
    // unique — so destination seq numbers are assigned identically on
    // every run and in both exec modes.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const Mail& a, const Mail& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.priority != b.priority) return a.priority < b.priority;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (auto& m : merge_scratch_) {
      ++cross_posts_;
      if (m.daemon) {
        tiles_[dst]->schedule_daemon_at(m.time, std::move(m.fn), m.priority);
      } else {
        tiles_[dst]->schedule_at(m.time, std::move(m.fn), m.priority);
      }
    }
  }
  merge_scratch_.clear();
}

bool TiledEngine::plan_epoch(TimePs until, std::uint64_t max_events,
                             std::uint64_t base_executed, bool live_gated) {
  drain_mailboxes();
  for (const Kernel* k : tiles_)
    if (k->stop_requested()) return false;
  // events_executed() walks every tile; an unbounded run has no budget.
  if (max_events != UINT64_MAX &&
      events_executed() - base_executed >= max_events)
    return false;

  TimePs next = UINT64_MAX;
  std::size_t total_live = 0;
  for (std::size_t k = 0; k < tiles_.size(); ++k) {
    tile_next_[k] = tiles_[k]->next_event_time();
    next = std::min(next, tile_next_[k]);
    total_live += tiles_[k]->live_events();
  }
  if (live_gated && total_live == 0) return false;
  if (next == UINT64_MAX || next > until) return false;

  // Window: timestamps in [next, next + L - 1]; time is integer ps, so the
  // inclusive limit is exact. Clamped against run_until()'s bound.
  TimePs limit = next >= UINT64_MAX - lookahead_ ? UINT64_MAX - 1
                                                 : next + lookahead_ - 1;
  window_limit_ = std::min(limit, until);
  for (std::size_t k = 0; k < tiles_.size(); ++k) {
    // A tile holding *all* remaining live events stops at its last one,
    // exactly like Kernel::run() — which is what makes untiled workloads
    // on a tiled platform bit-identical to the plain kernel. A tile whose
    // liveness depends on others (or any tile under run_until semantics)
    // runs daemons through the whole window.
    const std::size_t others = total_live - tiles_[k]->live_events();
    window_live_only_[k] = static_cast<std::uint8_t>(live_gated && others == 0);
  }
  return true;
}

void TiledEngine::run_epochs(TimePs until, std::uint64_t max_events,
                             bool live_gated) {
  if (running_)
    throw std::logic_error("TiledEngine: re-entrant run");
  running_ = true;
  done_ = false;
  for (Kernel* k : tiles_) k->clear_stop();
  const std::uint64_t base = events_executed();
  const std::size_t t = tiles_.size();

  // Adaptive executor: epochs run on this thread until one executes at
  // least kParallelBreakEven events; the rest of the run then goes to
  // worker threads. Epochs are bit-identical in both modes, so the switch
  // is exact, and it reads only event counts, so it repeats exactly.
  bool may_thread = opts_.mode == ExecMode::kParallel && t > 1;
  bool threaded = may_thread && opts_.force_threads;
  std::uint32_t permits = 0;
  if (!threaded) {
    while (plan_epoch(until, max_events, base, live_gated)) {
      ++epochs_;
      std::uint64_t ran = 0;
      for (std::size_t k = 0; k < t; ++k) ran += run_tile(k);
      if (!may_thread || ran < kParallelBreakEven) continue;
      // One try per run. With the budget exhausted (e.g. a harness sweep
      // owns the machine) the run stays on this bit-identical loop.
      may_thread = false;
      const auto wanted = static_cast<std::uint32_t>(t - 1);
      if (common::thread_budget_try_acquire(wanted)) {
        permits = wanted;
        threaded = true;
        break;
      }
    }
  }
  last_parallel_ = threaded;
  if (threaded) run_threaded(until, max_events, base, live_gated);
  if (permits > 0) common::thread_budget_release(permits);

  if (until != UINT64_MAX) {
    bool stopped = false;
    for (const Kernel* k : tiles_) stopped = stopped || k->stop_requested();
    if (!stopped)
      for (Kernel* k : tiles_) k->advance_to(until);
  }
  running_ = false;
}

void TiledEngine::run_threaded(TimePs until, std::uint64_t max_events,
                               std::uint64_t base_executed,
                               bool live_gated) {
  const std::size_t t = tiles_.size();
  // Two-phase epochs: the coordinator plans single-threaded, the start
  // barrier publishes the window, every participant runs its tile's
  // window, the finish barrier returns control to the coordinator. The
  // barriers carry all synchronization; no tile state is touched
  // concurrently. The coordinator doubles as tile 0's worker.
  std::barrier start_barrier(static_cast<std::ptrdiff_t>(t));
  std::barrier finish_barrier(static_cast<std::ptrdiff_t>(t));
  std::vector<std::jthread> workers;
  workers.reserve(t - 1);
  for (std::size_t k = 1; k < t; ++k) {
    workers.emplace_back([this, k, &start_barrier, &finish_barrier] {
      for (;;) {
        start_barrier.arrive_and_wait();
        if (done_) return;
        run_tile(k);
        finish_barrier.arrive_and_wait();
      }
    });
  }
  for (;;) {
    const bool go = plan_epoch(until, max_events, base_executed, live_gated);
    done_ = !go;
    start_barrier.arrive_and_wait();
    if (!go) break;
    ++epochs_;
    run_tile(0);
    finish_barrier.arrive_and_wait();
  }
  workers.clear();  // join
}

std::uint64_t TiledEngine::run_tile(std::size_t k) {
  // Nothing due in this window. Tiles share no state, so no other tile's
  // window can have queued an earlier event since plan_epoch looked.
  if (tile_next_[k] > window_limit_) return 0;
  return tiles_[k]->run_window(window_limit_, window_live_only_[k] != 0);
}

void TiledEngine::run(std::uint64_t max_events) {
  run_epochs(UINT64_MAX, max_events, /*live_gated=*/true);
}

void TiledEngine::run_until(TimePs until) {
  run_epochs(until, UINT64_MAX, /*live_gated=*/false);
}

}  // namespace rw::sim
