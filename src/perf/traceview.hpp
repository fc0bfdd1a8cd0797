// TraceView: typed spans over a raw execution trace.
//
// sim::pair_records (sim/trace.hpp) owns the pairing rules; TraceView
// turns each paired opening record into a typed *span* — compute, transfer
// or DMA, with resolved start/finish times and identities — and is the
// input contract of rw::critpath's dependence-graph builder. Records that
// do not pair produce no span and are never an error.
//
// Spans keep the order of their opening records (`seq`). For traces
// produced by reservation-order executors this is exactly the order every
// platform resource serialized its requests in, which is what the critpath
// replay leans on. The global stream need not be sorted by time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/trace.hpp"

namespace rw::perf {

/// Sentinel task identity for spans without one (plain compute blocks).
inline constexpr std::uint64_t kNoTask = ~0ULL;

struct ComputeSpan {
  std::size_t seq = 0;  // index of the opening trace event
  sim::CoreId core{};
  std::string label;
  std::uint64_t task = kNoTask;  // task index when known
  Cycles cycles = 0;             // cycles executed on `core`
  Cycles ref_cycles = 0;         // reference-RISC cycles (0 when unknown)
  TimePs start = 0;
  TimePs finish = 0;

  [[nodiscard]] DurationPs duration() const { return finish - start; }
};

struct TransferSpan {
  std::size_t seq = 0;
  sim::CoreId src_core{};
  sim::CoreId dst_core{};
  std::string label;
  std::uint64_t src_task = kNoTask;
  std::uint64_t dst_task = kNoTask;
  std::uint64_t bytes = 0;
  TimePs start = 0;
  TimePs finish = 0;

  /// Same-PE dependence record: never touched the fabric.
  [[nodiscard]] bool local() const { return src_core == dst_core; }
  [[nodiscard]] DurationPs duration() const { return finish - start; }
};

struct DmaSpan {
  std::size_t seq = 0;
  std::uint64_t bytes = 0;
  TimePs start = 0;
  TimePs finish = 0;

  [[nodiscard]] DurationPs duration() const { return finish - start; }
};

class TraceView {
 public:
  /// Decode `events` (unpaired or foreign records are counted in
  /// total_events() but produce no span). A zero-event trace yields a
  /// valid empty view.
  static TraceView from_events(const std::vector<sim::TraceEvent>& events);

  [[nodiscard]] const std::vector<ComputeSpan>& computes() const {
    return computes_;
  }
  [[nodiscard]] const std::vector<TransferSpan>& transfers() const {
    return transfers_;
  }
  [[nodiscard]] const std::vector<DmaSpan>& dmas() const { return dmas_; }

  [[nodiscard]] bool empty() const {
    return computes_.empty() && transfers_.empty() && dmas_.empty();
  }
  [[nodiscard]] std::size_t span_count() const {
    return computes_.size() + transfers_.size() + dmas_.size();
  }
  /// Events in the input stream, decoded or not.
  [[nodiscard]] std::size_t total_events() const { return total_events_; }
  /// Events consumed into spans (2 per span by construction).
  [[nodiscard]] std::size_t consumed_events() const {
    return 2 * span_count();
  }

  /// Latest finish over all spans (0 for an empty view).
  [[nodiscard]] TimePs makespan() const { return makespan_; }

 private:
  std::vector<ComputeSpan> computes_;
  std::vector<TransferSpan> transfers_;
  std::vector<DmaSpan> dmas_;
  std::size_t total_events_ = 0;
  TimePs makespan_ = 0;
};

}  // namespace rw::perf
