#include "sched/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rw::sched {
namespace {

/// Context-switch cost charged by admission's response-time analysis.
constexpr Cycles kSwitchOverhead = 200;

}  // namespace

HybridScheduler::HybridScheduler(HybridConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.time_shared_cores == 0 && cfg_.pool_cores == 0)
    throw std::invalid_argument("hybrid scheduler needs cores");
  rt_cores_.resize(cfg_.time_shared_cores);
  rt_freqs_.assign(cfg_.time_shared_cores, cfg_.ladder.lowest());
  for (auto& ts : rt_cores_) ts.frequency = cfg_.ladder.lowest();
}

Admission HybridScheduler::admit_rt(const TaskSet& ts) {
  Admission adm;
  for (std::size_t c = 0; c < rt_cores_.size(); ++c) {
    // Tentatively merge onto core c and find the lowest feasible level.
    TaskSet merged = rt_cores_[c];
    for (const auto& t : ts.tasks) {
      merged.add(t.name, t.wcet, t.period, t.deadline, t.criticality);
    }
    // Deadline-monotonic is optimal among fixed-priority assignments for
    // constrained deadlines; analyse under it.
    assign_dm_priorities(merged);
    const auto freq =
        governor_pick_frequency(merged, cfg_.ladder, kSwitchOverhead);
    if (freq.has_value()) {
      merged.frequency = *freq;
      rt_cores_[c] = std::move(merged);
      rt_freqs_[c] = *freq;
      adm.admitted = true;
      adm.core = c;
      adm.frequency = *freq;
      return adm;
    }
  }
  adm.reason = "no time-shared core passes response-time analysis, even at " +
               format_hz(cfg_.ladder.highest());
  return adm;
}

HybridResult HybridScheduler::run_pool(
    std::vector<GangArrival> arrivals) const {
  // Process arrivals in time order; all bookkeeping below indexes the
  // sorted order.
  std::sort(arrivals.begin(), arrivals.end(),
            [](const GangArrival& a, const GangArrival& b) {
              return a.arrival < b.arrival;
            });

  HybridResult res;
  res.pool_apps.resize(arrivals.size());

  struct AppState {
    bool arrived = false;
    bool done = false;
    bool in_serial = true;
    double serial_left = 0;    // cycles
    double parallel_left = 0;  // cycles
    double share = 0;          // cores currently held
    double core_time = 0;      // integral of share over time (ps*cores)
  };
  std::vector<AppState> st(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto& app = arrivals[i].app;
    st[i].serial_left =
        static_cast<double>(app.total_work) * app.serial_fraction;
    st[i].parallel_left =
        static_cast<double>(app.total_work) - st[i].serial_left;
    res.pool_apps[i].name = app.name;
    res.pool_apps[i].arrival = arrivals[i].arrival;
  }

  const double hz = static_cast<double>(cfg_.pool_frequency);
  const double pool = static_cast<double>(cfg_.pool_cores);
  if (pool <= 0) throw std::invalid_argument("pool has no cores");

  // Reactive equipartition: water-fill the pool among active apps.
  // Serial-phase apps are capped at one core (a serial region cannot use
  // more); parallel apps at their max_cores. When the pool is smaller than
  // the number of apps everyone gets an equal fractional share (processor
  // sharing), so no app ever starves.
  auto rebalance = [&](TimePs /*now*/) {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < st.size(); ++i) {
      st[i].share = 0;
      if (st[i].arrived && !st[i].done) active.push_back(i);
    }
    if (active.empty()) return;
    auto cap_of = [&](std::size_t i) {
      if (st[i].in_serial) return 1.0;
      return static_cast<double>(
          std::min<std::size_t>(arrivals[i].app.max_cores, cfg_.pool_cores));
    };
    double left = pool;
    std::vector<std::size_t> unsat = active;
    while (!unsat.empty() && left > 1e-9) {
      const double fair = left / static_cast<double>(unsat.size());
      std::vector<std::size_t> still;
      double consumed = 0;
      for (const std::size_t i : unsat) {
        const double cap = cap_of(i);
        const double add = std::min(fair, cap - st[i].share);
        st[i].share += add;
        consumed += add;
        if (st[i].share < cap - 1e-9) still.push_back(i);
      }
      left -= consumed;
      if (still.size() == unsat.size()) break;  // nobody saturated: done
      unsat.swap(still);
    }
    ++res.reallocations;
  };

  // Event horizon walk: next event is an arrival or the earliest projected
  // phase completion under current shares.
  TimePs now = 0;
  std::size_t next_arrival = 0;
  std::size_t remaining_apps = arrivals.size();
  double used_core_time = 0;

  auto advance_to = [&](TimePs t) {
    const double dt_cycles =
        static_cast<double>(t - now) * hz / 1e12;  // cycles elapsed
    for (std::size_t i = 0; i < st.size(); ++i) {
      auto& s = st[i];
      if (!s.arrived || s.done || s.share <= 0) continue;
      const double dt_ps = static_cast<double>(t - now);
      s.core_time += s.share * dt_ps;
      used_core_time += s.share * dt_ps;
      if (s.in_serial) {
        s.serial_left -= dt_cycles * cfg_.serial_boost * s.share;
        if (s.serial_left <= 1e-6) {
          s.serial_left = 0;
          s.in_serial = false;
        }
      } else {
        s.parallel_left -= dt_cycles * s.share;
        if (s.parallel_left <= 1e-6) {
          s.parallel_left = 0;
          s.done = true;
          res.pool_apps[i].finish = t;
          res.pool_apps[i].mean_cores =
              s.core_time / std::max(1.0, static_cast<double>(
                                              t - res.pool_apps[i].arrival));
          --remaining_apps;
        }
      }
    }
    now = t;
  };

  auto next_phase_end = [&]() -> TimePs {
    double best = -1;
    for (const auto& s : st) {
      if (!s.arrived || s.done || s.share <= 0) continue;
      const double work = s.in_serial
                              ? s.serial_left / (cfg_.serial_boost * s.share)
                              : s.parallel_left / s.share;
      const double dt_ps = work / hz * 1e12;
      if (best < 0 || dt_ps < best) best = dt_ps;
    }
    if (best < 0) return 0;
    return now + static_cast<TimePs>(std::ceil(best)) + 1;
  };

  while (remaining_apps > 0) {
    // Admit any arrivals at the current time.
    bool admitted = false;
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].arrival <= now) {
      // Map sorted arrival back to its original result slot by name-free
      // index: we resorted `arrivals`, so recompute the slot.
      st[next_arrival].arrived = true;  // indices follow the sorted order
      res.pool_apps[next_arrival].name = arrivals[next_arrival].app.name;
      res.pool_apps[next_arrival].arrival = arrivals[next_arrival].arrival;
      ++next_arrival;
      admitted = true;
    }
    if (admitted) rebalance(now);

    const bool any_active = [&] {
      for (const auto& s : st)
        if (s.arrived && !s.done) return true;
      return false;
    }();

    TimePs next_evt;
    if (!any_active) {
      if (next_arrival >= arrivals.size()) break;  // nothing left
      next_evt = arrivals[next_arrival].arrival;
    } else {
      next_evt = next_phase_end();
      if (next_arrival < arrivals.size())
        next_evt = std::min(next_evt, arrivals[next_arrival].arrival);
    }
    if (next_evt <= now) next_evt = now + 1;

    advance_to(next_evt);
    rebalance(now);
  }

  res.pool_makespan = now;
  if (now > 0)
    res.pool_utilization =
        used_core_time / (static_cast<double>(now) * pool);
  return res;
}

}  // namespace rw::sched
