// Tile-partitioned parallel simulation (conservative lookahead sync).
//
// The platform decomposes into tiles — a set of cores with their local
// scratchpads and a fabric endpoint stub — each running its own Kernel
// event queue. Tiles synchronize conservatively, SystemC/TLM2 style: every
// epoch the engine takes the global minimum next-event time `m` and lets
// each tile execute its window of events with timestamps in
// [m, m + L - 1], where the lookahead L = sim::min_cross_tile_latency() is
// the smallest latency the fabric can impose on any cross-tile message
// (bus arbitration floor / one mesh hop). Cross-tile events travel through
// per-(src,dst) timestamped mailboxes and are drained at the epoch
// barrier, merged into the destination wheel in (time, priority, src tile,
// emission seq) order.
//
// Determinism proof sketch (the full version lives in DESIGN.md):
//   1. A message posted from a window event at time u carries a timestamp
//      t >= u + L >= m + L, i.e. strictly beyond every timestamp the
//      current windows may execute — so no tile can ever receive an event
//      it should already have run (conservative safety).
//   2. Within a tile, events execute in the kernel's strict (time,
//      priority, seq) total order; mailbox merges happen between windows
//      in a fixed sort order, so destination seq numbers are assigned
//      identically on every run.
//   3. Tiles share no mutable state (enforced by the memory system's
//      cross-tile access guard), so the interleaving of two tiles'
//      windows cannot be observed by either.
// Therefore the execution each tile performs is a pure function of the
// epoch schedule, which is itself computed single-threaded at barriers —
// and ExecMode::kParallel (one worker thread per tile) is bit-identical
// to ExecMode::kSequential (tile windows iterated in order) by
// construction. The sequential mode is the reference; the parallel mode
// only buys wall-clock time.
//
// Because every epoch is bit-identical in both modes, the engine may also
// switch modes between epochs. kParallel is therefore adaptive: every
// run()/run_until() starts on the sequential epoch loop, and the first
// epoch that executes at least kParallelBreakEven events (summed over the
// tiles) moves the rest of the run onto worker threads. The decision
// reads only that deterministic event count, never wall time, so whether
// a run used threads repeats exactly. Sparse runs — a handful of events
// per epoch, the common case for platform workloads — never pay a thread
// barrier at all.
//
// Worker threads come out of the process-wide thread budget
// (common/thread_budget.hpp), acquired at the switch. When the budget is
// exhausted — e.g. inside a harness sweep that already owns the machine —
// the run stays sequential, which is safe precisely because of the
// identity above.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "sim/kernel.hpp"

namespace rw::sim {

struct PlatformConfig;

/// Smallest latency the platform's fabric can impose on a cross-tile
/// message — the bus's arbitration overhead or one mesh hop's latency:
/// the conservative lookahead bound. Zero means the config
/// cannot support tiled execution (validate_tiling rejects it).
[[nodiscard]] DurationPs min_cross_tile_latency(const PlatformConfig& cfg);

/// Typed validation of a config's tiling parameters: rejects
/// num_tiles == 0, num_tiles > core count, core tile indices out of
/// range, and zero-lookahead fabrics (a 0-latency cross-tile link would
/// degenerate conservative sync to lockstep). num_tiles == 1 is always
/// valid — it is the plain sequential kernel.
[[nodiscard]] Status validate_tiling(const PlatformConfig& cfg);

/// Configure `cfg` for parallel tiled execution with (up to) `num_tiles`
/// tiles. Clamps to the core count; 1 is a no-op (sequential reference).
/// With `partition_cores` the cores are spread over the tiles in
/// contiguous balanced blocks; without it every core stays on tile 0
/// (legal: the extra tiles idle, which is how workloads with cross-core
/// shared state run tiled).
void apply_tiling(PlatformConfig& cfg, std::uint32_t num_tiles,
                  bool partition_cores);

/// Drives one Kernel per tile through barrier-synchronized epoch windows.
/// Owned by Platform when KernelConfig::num_tiles > 1; tests may also
/// build one directly over bare kernels.
class TiledEngine {
 public:
  /// Events per epoch (all tiles) at which worker threads pay for their
  /// barriers. Measured on a 4-vCPU x86 host: one two-phase std::barrier
  /// epoch costs ~20 us, a platform event ~0.1 us, and 4 tiles hide 3/4
  /// of an epoch's event work — break-even near 270 events. tiled_pipeline
  /// runs ~1.7 events per epoch and the E13 storm ~80k, so the exact value
  /// moves no workload across the line.
  static constexpr std::uint64_t kParallelBreakEven = 256;

  struct Options {
    ExecMode mode = ExecMode::kSequential;
    /// Testing hook: in kParallel mode, run every epoch on worker threads
    /// from the first one on, skipping the break-even, and spawn them even
    /// when the thread budget is exhausted (the TSan racing-mailbox tests
    /// and the seq==par corpus must exercise real threads on any machine).
    bool force_threads = false;
  };

  /// `kernels` are borrowed, one per tile, and must outlive the engine.
  /// `lookahead` must be positive.
  TiledEngine(std::vector<Kernel*> kernels, DurationPs lookahead,
              Options opts);
  TiledEngine(const TiledEngine&) = delete;
  TiledEngine& operator=(const TiledEngine&) = delete;

  /// Post an event into another tile, from inside a window of tile
  /// `src`. The timestamp must respect the lookahead contract
  /// (t >= src tile's now + lookahead); it lands in the (src,dst)
  /// mailbox and is merged into dst's queue at the next epoch barrier.
  void post(std::uint32_t src, std::uint32_t dst, TimePs t, EventFn fn,
            int priority = 0, bool daemon = false);

  /// Tiled analogue of Kernel::run(): epochs until no live events remain
  /// anywhere (mailboxes included), a stop is requested on any tile, or
  /// the event budget is exhausted. The budget is checked at epoch
  /// barriers, so it is an approximate safety net, not an exact count.
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Run all events (daemons included) with timestamp <= t, then advance
  /// every tile's clock to t.
  void run_until(TimePs t);

  [[nodiscard]] std::size_t tile_count() const { return tiles_.size(); }
  [[nodiscard]] DurationPs lookahead() const { return lookahead_; }
  [[nodiscard]] const Options& options() const { return opts_; }
  void set_mode(ExecMode mode) { opts_.mode = mode; }
  void set_force_threads(bool on) { opts_.force_threads = on; }

  /// Epoch barriers crossed and cross-tile messages merged so far.
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t cross_posts() const { return cross_posts_; }
  /// Whether the last run()/run_until() actually used worker threads
  /// (false in sequential mode, when no epoch reached the break-even, and
  /// on thread-budget fallback).
  [[nodiscard]] bool last_run_parallel() const { return last_parallel_; }

  /// Sum of events executed across tiles / max of tile clocks.
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] TimePs now() const;

 private:
  struct Mail {
    TimePs time;
    std::int32_t priority;
    std::uint32_t src;
    std::uint64_t seq;  // per-(src,dst) emission counter
    EventFn fn;
    bool daemon;
  };

  /// Merge every mailbox into its destination kernel, in (time, priority,
  /// src, seq) order per destination. Runs single-threaded at barriers.
  void drain_mailboxes();
  /// Shared epoch driver for run()/run_until(); `until` bounds windows
  /// (UINT64_MAX for run()), `live_gated` selects run()'s termination.
  void run_epochs(TimePs until, std::uint64_t max_events, bool live_gated);
  /// The remaining epochs of a run on one worker thread per tile.
  void run_threaded(TimePs until, std::uint64_t max_events,
                    std::uint64_t base_executed, bool live_gated);
  /// Compute the next window into window_limit_/window_live_only_/
  /// tile_next_. Returns false when this epoch terminates the run.
  bool plan_epoch(TimePs until, std::uint64_t max_events,
                  std::uint64_t base_executed, bool live_gated);
  /// Run tile `k`'s window of the planned epoch; returns its event count.
  std::uint64_t run_tile(std::size_t k);

  std::vector<Kernel*> tiles_;
  DurationPs lookahead_;
  Options opts_;

  std::vector<std::vector<Mail>> mail_;  // [src * T + dst]
  std::vector<std::uint64_t> mail_seq_;  // per-pair emission counters
  // Per source tile: posted since the last drain. Only tile `src`'s own
  // window writes entry `src`, so no two workers share one.
  std::vector<std::uint8_t> posted_;
  std::vector<Mail> merge_scratch_;

  // Window parameters for the current epoch: written by the coordinator
  // between barriers, read by workers inside the window phase (the
  // barrier provides the ordering).
  TimePs window_limit_ = 0;
  std::vector<std::uint8_t> window_live_only_;
  std::vector<TimePs> tile_next_;  // each tile's next event time
  bool done_ = false;

  std::uint64_t epochs_ = 0;
  std::uint64_t cross_posts_ = 0;
  bool last_parallel_ = false;
  bool running_ = false;
};

}  // namespace rw::sim
