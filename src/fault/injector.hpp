// Fault injection onto a live virtual platform (rw::fault).
//
// The injector compiles a FaultPlan onto kernel *daemon* events, one per
// fault. Daemons never extend a simulation (run() stops when only daemons
// remain), so an armed-but-empty plan schedules zero events and the run
// is bit-identical to an uninstrumented one — the same contract rw::perf
// holds for its observers, fingerprint-tested the same way. Every applied
// fault (and every recovery action, appended by the RecoverySupervisor)
// lands in a FaultTimeline whose JSON is byte-stable for a fixed seed:
// the deterministic disturbance record the paper's virtual-platform
// argument calls for.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/plan.hpp"
#include "sim/platform.hpp"

namespace rw::fault {

/// One applied fault or recovery action, at simulated time.
struct FaultRecord {
  TimePs time = 0;
  std::string what;  // fault kind name or "recovery.*" action
  std::uint32_t target = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string note;  // optional detail ("already_failed", "idle", ...)
};

/// Chronological record of faults applied and recoveries performed.
class FaultTimeline {
 public:
  void record(TimePs time, std::string what, std::uint32_t target = 0,
              std::uint64_t a = 0, std::uint64_t b = 0,
              std::string note = {});

  [[nodiscard]] const std::vector<FaultRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Emit the records, in order, as a deterministic JSON array.
  void write_json(json::Writer& w) const;

 private:
  std::vector<FaultRecord> records_;
};

/// Links a kLinkDegrade event can single out on `cfg`'s fabric: every
/// mesh link, and none on the bus, whose one link is the whole fabric —
/// there a per-link degrade applies fabric-wide. RandomSpec::num_links
/// is drawn from here.
[[nodiscard]] std::size_t degradable_links(const sim::PlatformConfig& cfg);

/// Arms a plan against a platform. Lifetime: must outlive kernel.run().
class FaultInjector {
 public:
  FaultInjector(sim::Platform& platform, FaultPlan plan);

  /// Schedule one daemon event per plan event (empty plan: none at all).
  /// Events whose time already passed fire at the current time. On a tiled
  /// platform each fault is armed on the kernel of the tile that owns its
  /// target — core faults on the core's tile, bit-flips on the region's
  /// tile, fabric/DMA/IRQ faults on tile 0 — so applying it touches only
  /// state local to the executing worker.
  void arm();

  [[nodiscard]] std::size_t armed_events() const { return events_.size(); }
  [[nodiscard]] std::size_t applied() const {
    return applied_.load(std::memory_order_relaxed);
  }
  /// The tile-0 record stream. On an untiled platform this is the whole
  /// timeline (and recovery actions land here); use merged_timeline() for
  /// the cross-tile chronological view.
  [[nodiscard]] FaultTimeline& timeline() { return timeline_; }
  [[nodiscard]] const FaultTimeline& timeline() const { return timeline_; }

  /// All tiles' records merged into one chronological timeline (stable:
  /// ties keep tile order, tile 0 first). Deterministic across ExecMode.
  [[nodiscard]] FaultTimeline merged_timeline() const;

 private:
  void apply(std::size_t i, std::uint32_t tile);
  [[nodiscard]] FaultTimeline& stream_for(std::uint32_t tile) {
    return tile == 0 ? timeline_ : tile_streams_[tile - 1];
  }

  sim::Platform& platform_;
  std::vector<FaultEvent> events_;
  FaultTimeline timeline_;
  std::vector<FaultTimeline> tile_streams_;  // tiles 1..N-1
  // Atomic only because two tiles may fire faults in the same epoch; the
  // final count is deterministic regardless.
  std::atomic<std::size_t> applied_{0};
  bool armed_ = false;
};

}  // namespace rw::fault
