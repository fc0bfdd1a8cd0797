#include "sched/spacealloc.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>
#include <stdexcept>

namespace rw::sched {

SpaceAllocator::SpaceAllocator(std::size_t capacity, std::size_t base)
    : base_(base), free_count_(capacity), free_(capacity, true) {}

std::vector<std::size_t> SpaceAllocator::allocate(std::size_t min_cores,
                                                  std::size_t max_cores) {
  if (min_cores == 0 || min_cores > max_cores || min_cores > free_count_)
    return {};
  const std::size_t want = std::min(max_cores, free_count_);
  std::vector<std::size_t> granted;
  granted.reserve(want);
  for (std::size_t i = 0; i < free_.size() && granted.size() < want; ++i) {
    if (!free_[i]) continue;
    free_[i] = false;
    granted.push_back(base_ + i);
  }
  free_count_ -= granted.size();
  return granted;
}

void SpaceAllocator::release(const std::vector<std::size_t>& cores) {
  for (const std::size_t c : cores) {
    assert(c >= base_ && c - base_ < free_.size() && "foreign core index");
    assert(!free_[c - base_] && "double release");
    free_[c - base_] = true;
  }
  free_count_ += cores.size();
}

const char* arbitration_name(ArbitrationStrategy s) {
  switch (s) {
    case ArbitrationStrategy::kCentralized: return "centralized";
    case ArbitrationStrategy::kDistributed: return "distributed";
  }
  return "?";
}

RunMetrics GangResult::to_metrics() const {
  RunMetrics m = metrics;
  m.set_extra("arbitration_wait_ps", static_cast<double>(arbitration_wait));
  m.set_extra("operations", static_cast<double>(operations));
  m.set_extra("rejected_infeasible",
              static_cast<double>(rejected_infeasible));
  return m;
}

GangResult run_gang_schedule(const GangConfig& cfg,
                             std::vector<GangRequest> requests) {
  if (cfg.total_cores == 0)
    throw std::invalid_argument("gang pool needs cores");
  const std::size_t num_arbiters =
      cfg.strategy == ArbitrationStrategy::kCentralized
          ? 1
          : std::max<std::size_t>(1, cfg.arbiters);

  for (const auto& r : requests)
    if (r.app.min_cores > cfg.total_cores)
      throw std::invalid_argument("app '" + r.app.name +
                                  "' needs more cores than the pool has");

  GangResult res;
  res.apps.resize(requests.size());

  // Event queue over arrivals and completions.
  struct Event {
    TimePs time;
    bool is_completion;
    std::size_t idx;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      // Completions before arrivals at the same instant frees cores first.
      if (is_completion != o.is_completion) return !is_completion;
      return idx > o.idx;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    res.apps[i].arrival = requests[i].arrival;
    // Static admission: a request carrying a performance contract its
    // bound cannot satisfy is rejected outright — it would miss its
    // deadline even granted the whole pool instantly.
    if (requests[i].deadline > 0 && requests[i].makespan_bound > 0 &&
        requests[i].makespan_bound + cfg.arbitration_latency >
            requests[i].deadline) {
      res.apps[i].admitted = false;
      ++res.rejected_infeasible;
      continue;
    }
    events.push(Event{requests[i].arrival, false, i});
  }

  SpaceAllocator alloc(cfg.total_cores);
  std::vector<std::vector<std::size_t>> granted_cores(requests.size());
  std::deque<std::size_t> pending;  // FIFO admission
  std::vector<TimePs> arbiter_free(num_arbiters, 0);

  auto arbitrate = [&](std::size_t idx, TimePs now) -> TimePs {
    // Each allocate/release passes through the arbiter owning this app.
    const std::size_t a = idx % num_arbiters;
    const TimePs start = std::max(now, arbiter_free[a]);
    res.arbitration_wait += start - now;
    arbiter_free[a] = start + cfg.arbitration_latency;
    ++res.operations;
    return arbiter_free[a];
  };

  auto try_allocate = [&](TimePs now) {
    while (!pending.empty()) {
      const std::size_t idx = pending.front();
      const ParallelApp& app = requests[idx].app;
      const std::size_t want = std::min(app.max_cores, alloc.available());
      if (want < app.min_cores || want == 0) break;  // head-of-line waits
      pending.pop_front();
      granted_cores[idx] = alloc.allocate(app.min_cores, app.max_cores);

      const TimePs granted = arbitrate(idx, now);
      const double span = app.span_cycles(want, cfg.serial_boost);
      const DurationPs dur = cycles_to_ps(
          static_cast<Cycles>(span + 0.5), cfg.core_frequency);
      res.apps[idx].start = granted;
      res.apps[idx].cores = want;
      res.apps[idx].finish = granted + dur;
      events.push(Event{granted + dur, true, idx});
    }
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    if (ev.is_completion) {
      // Release also passes through the arbiter; cores are free once the
      // release operation completes.
      const TimePs released = arbitrate(ev.idx, ev.time);
      alloc.release(granted_cores[ev.idx]);
      granted_cores[ev.idx].clear();
      res.metrics.makespan = std::max(res.metrics.makespan, ev.time);
      try_allocate(released);
    } else {
      pending.push_back(ev.idx);
      try_allocate(ev.time);
    }
  }

  // Pool utilization: granted core-time over pool capacity for the run.
  if (res.metrics.makespan > 0) {
    double busy = 0;
    for (const auto& a : res.apps)
      busy += static_cast<double>(a.cores) *
              static_cast<double>(a.finish - a.start);
    res.metrics.mean_core_utilization =
        busy / (static_cast<double>(cfg.total_cores) *
                static_cast<double>(res.metrics.makespan));
  }
  return res;
}

}  // namespace rw::sched
