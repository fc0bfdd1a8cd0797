// Declarative, seed-reproducible fault plans (rw::fault).
//
// The paper's NXP section demands *predictable* behaviour under
// disturbance; the CoWare/Dömer sections argue the virtual platform is
// where disturbance should be provoked and observed. A FaultPlan is the
// provocation half: a schedule of platform-layer fault events — core
// crashes/stalls, interconnect degradation and packet drops, memory
// bit-flips, DMA aborts, dropped/spurious interrupt lines — fixed before
// the run starts and therefore perfectly reproducible. Plans are either
// hand-built (unit tests, directed experiments) or drawn from an Rng
// seed (E14's fault-rate sweeps); either way the same plan replays the
// same faults at the same picosecond, forever.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/units.hpp"

namespace rw::fault {

enum class FaultKind : std::uint8_t {
  kCoreCrash,    // target = core; permanent until recovery acts
  kCoreStall,    // target = core, a = stall duration (ps)
  kLinkDegrade,  // target = link (UINT32_MAX = whole fabric), a = factor
                 //   in milli-units (1500 = 1.5x occupancy)
  kPacketDrop,   // a = number of upcoming transfers that each lose a packet
  kMemBitFlip,   // a = address, b = bit index within that byte (0..7)
  kDmaAbort,     // abort the in-flight DMA transfer, if any
  kIrqDrop,      // target = line, a = number of raises to lose
  kIrqSpurious,  // target = line, raised out of nowhere
};

const char* fault_kind_name(FaultKind k);

/// Number of FaultKind enumerators (the enum is dense from 0).
inline constexpr std::size_t kNumFaultKinds = 8;

/// Inverse of fault_kind_name(); false when `name` matches no kind.
bool fault_kind_from_name(std::string_view name, FaultKind& out);

/// Bit for kind `k` in a per-kind enable mask.
inline constexpr std::uint32_t fault_kind_bit(FaultKind k) {
  return 1u << static_cast<std::uint32_t>(k);
}

/// Mask with every fault kind enabled.
inline constexpr std::uint32_t kAllFaultKinds =
    (1u << kNumFaultKinds) - 1;

/// Whole-fabric target marker for kLinkDegrade.
inline constexpr std::uint32_t kFabricWide = UINT32_MAX;

struct FaultEvent {
  TimePs time = 0;
  FaultKind kind = FaultKind::kCoreCrash;
  std::uint32_t target = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Parameters for FaultPlan::random(). Rates are per simulated
/// millisecond; kind weights are relative (0 disables a kind).
struct RandomSpec {
  double rate_per_ms = 1.0;       // mean fault arrivals per ms
  TimePs window_start = 0;        // faults land in [start, end)
  TimePs window_end = 0;          // must be > start for any fault to land
  std::size_t num_cores = 4;
  std::size_t num_links = 0;      // 0 = fabric-wide degrades only
  std::uint64_t mem_base = 0;     // bit-flip address range
  std::uint64_t mem_size = 0;     // 0 disables bit-flips

  // Relative weights, indexed by FaultKind. Crashes dominate by default
  // because they are what the recovery policies exist for.
  std::uint32_t weight_crash = 4;
  std::uint32_t weight_stall = 2;
  std::uint32_t weight_degrade = 2;
  std::uint32_t weight_drop = 2;
  std::uint32_t weight_bitflip = 1;
  std::uint32_t weight_dma_abort = 1;
  std::uint32_t weight_irq_drop = 1;
  std::uint32_t weight_irq_spurious = 1;

  /// Per-kind enable mask (bit = fault_kind_bit(kind)), ANDed over the
  /// weights above. Lets a caller keep the weight profile but restrict a
  /// plan to chosen kinds — the fuzz coverage matrix uses single-kind
  /// masks to target never-hit cells deterministically.
  std::uint32_t kind_mask = kAllFaultKinds;

  [[nodiscard]] bool kind_enabled(FaultKind k) const {
    return (kind_mask & fault_kind_bit(k)) != 0;
  }
  /// Restrict the plan to exactly one kind (weights still apply).
  RandomSpec& only_kind(FaultKind k) {
    kind_mask = fault_kind_bit(k);
    return *this;
  }
};

/// Ordered fault schedule. Builder calls append; events() returns them
/// sorted by (time, insertion order) so arming is deterministic.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& crash_core(TimePs t, std::uint32_t core);
  FaultPlan& stall_core(TimePs t, std::uint32_t core, DurationPs d);
  /// factor >= 1.0; stored in milli-units for byte-stable JSON.
  FaultPlan& degrade_link(TimePs t, std::uint32_t link, double factor);
  FaultPlan& degrade_fabric(TimePs t, double factor);
  FaultPlan& drop_packets(TimePs t, std::uint64_t count);
  FaultPlan& flip_bit(TimePs t, std::uint64_t addr, std::uint32_t bit);
  FaultPlan& abort_dma(TimePs t);
  FaultPlan& drop_irqs(TimePs t, std::uint32_t line, std::uint64_t count);
  FaultPlan& spurious_irq(TimePs t, std::uint32_t line);
  FaultPlan& add(FaultEvent e);

  /// Events sorted by time (stable: equal-time events keep insertion
  /// order), which is the order the injector arms them in.
  [[nodiscard]] std::vector<FaultEvent> events() const;

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Seed-reproducible plan: exponential inter-arrivals at
  /// `spec.rate_per_ms` inside the window, kinds by weight, targets
  /// uniform. Same (seed, spec) -> identical plan, always.
  static FaultPlan random(std::uint64_t seed, const RandomSpec& spec);

  /// Emit the deterministic rw-fault-plan-1 object into an open writer
  /// (documents nest a plan, e.g. rw-fuzz-case-1).
  void write_json(json::Writer& w) const;

  /// Inverse of write_json(). Accepts any rw-fault-plan-1 document; the
  /// round trip plan -> write_json -> from_json -> write_json is
  /// byte-stable (events re-sort identically because write_json already
  /// emits them in armed order). Unknown kinds or malformed fields are
  /// errors — a committed repro must not silently lose events.
  static Result<FaultPlan> from_json(std::string_view text);
  /// As from_json(), over an already-parsed rw-fault-plan-1 object.
  static Result<FaultPlan> from_json_value(const json::Value& doc);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace rw::fault
