// Deterministic record/replay.
//
// Sec. VII phase 2 of the structured debugging process is "reproducing the
// defect". On a virtual platform a run is a pure function of its
// configuration and seeds, so reproduction is exact. The recorder folds
// the full trace-event stream into a fingerprint; two runs replay
// identically iff their fingerprints match — which is how the tests and
// experiment E9 *prove* determinism instead of asserting it.
//
// On a tiled platform (KernelConfig::num_tiles > 1) the recorder keeps one
// fold per tile — each tile's trace stream is totally ordered by its own
// kernel, while the interleaving *between* tiles is exactly what parallel
// execution does not fix. The per-tile digests are combined in tile order
// into one canonical fingerprint, which is therefore identical across
// ExecMode::kSequential and kParallel and across reruns. With one tile the
// fingerprint is bit-for-bit the classic single-stream fold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "sim/platform.hpp"

namespace rw::vpdebug {

/// FNV-1a-folded digest of every trace event (time, kind, core, label,
/// payloads) plus the event count, canonicalized per tile. It observes the
/// platform from construction to destruction.
class ExecutionRecorder final : public sim::Observer {
 public:
  explicit ExecutionRecorder(sim::Platform& platform);
  ~ExecutionRecorder() override { platform_.detach(*this); }

  /// Canonical digest: the tile-0 fold on an untiled platform, the
  /// tile-ordered combination of per-tile (digest, count) otherwise.
  [[nodiscard]] std::uint64_t fingerprint() const;
  /// Total trace events folded, across all tiles.
  [[nodiscard]] std::uint64_t events() const;

  [[nodiscard]] std::size_t tile_count() const { return slots_.size(); }
  [[nodiscard]] std::uint64_t tile_fingerprint(std::size_t t) const {
    return slots_.at(t).hash;
  }

 private:
  struct Slot {
    std::uint64_t hash = fnv::kRecorderSeed;
    std::uint64_t count = 0;
  };

  /// Fold one record into its tile's slot.
  void on_trace(std::uint32_t tile, const sim::TraceRecord& ev) override;

  sim::Platform& platform_;
  std::vector<Slot> slots_;  // one per tile; each written by one tile only
};

/// Convenience: run `scenario` twice on freshly-built platforms and
/// report whether the fingerprints match.
struct ReplayCheck {
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  [[nodiscard]] bool deterministic() const { return first == second; }
};

template <typename Scenario>
ReplayCheck check_replay(const sim::PlatformConfig& cfg,
                         Scenario&& scenario) {
  ReplayCheck out;
  {
    sim::Platform p(cfg);
    ExecutionRecorder rec(p);
    scenario(p);
    out.first = rec.fingerprint();
  }
  {
    sim::Platform p(cfg);
    ExecutionRecorder rec(p);
    scenario(p);
    out.second = rec.fingerprint();
  }
  return out;
}

}  // namespace rw::vpdebug
