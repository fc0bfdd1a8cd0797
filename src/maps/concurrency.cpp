#include "maps/concurrency.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace rw::maps {

std::size_t ConcurrencyGraph::add_app(std::string name, double load,
                                      sched::Criticality crit) {
  apps_.push_back(AppNode{std::move(name), load, crit});
  const std::size_t n = apps_.size();
  adj_.resize(n);
  for (auto& row : adj_) row.resize(n, false);
  return n - 1;
}

void ConcurrencyGraph::add_conflict(std::size_t a, std::size_t b) {
  if (a >= apps_.size() || b >= apps_.size())
    throw std::out_of_range("concurrency edge endpoint");
  if (a == b) return;
  adj_[a][b] = adj_[b][a] = true;
}

ConcurrencyGraph::WorstCase ConcurrencyGraph::worst_case_load() const {
  WorstCase best;
  std::vector<std::size_t> current;
  double current_load = 0;

  // Branch and bound over vertices in index order.
  std::vector<double> suffix_load(apps_.size() + 1, 0);
  for (std::size_t i = apps_.size(); i-- > 0;)
    suffix_load[i] = suffix_load[i + 1] + apps_[i].load;

  std::function<void(std::size_t)> go = [&](std::size_t next) {
    if (current_load > best.load) {
      best.load = current_load;
      best.clique = current;
    }
    if (next >= apps_.size()) return;
    if (current_load + suffix_load[next] <= best.load) return;  // bound
    for (std::size_t v = next; v < apps_.size(); ++v) {
      bool compatible = true;
      for (const std::size_t u : current)
        if (!adj_[u][v]) {
          compatible = false;
          break;
        }
      if (!compatible) continue;
      current.push_back(v);
      current_load += apps_[v].load;
      go(v + 1);
      current_load -= apps_[v].load;
      current.pop_back();
    }
  };
  go(0);
  return best;
}

std::size_t ConcurrencyGraph::cores_needed(double per_core_capacity) const {
  if (per_core_capacity <= 0)
    throw std::invalid_argument("core capacity must be positive");
  const double load = worst_case_load().load;
  return static_cast<std::size_t>(std::ceil(load / per_core_capacity));
}

}  // namespace rw::maps
