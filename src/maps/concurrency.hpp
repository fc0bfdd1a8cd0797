// Multi-application concurrency graph (Sec. IV).
//
// "a concurrency graph is used to capture potential parallelism between
// applications, in order to derive the worst case computational loads."
// Nodes are applications; an edge says the two may be active at the same
// time (e.g. a phone call while MP3 playback runs). The worst-case load is
// the heaviest clique — the most demanding set of applications that can
// legally coexist — which sizes the platform / drives admission.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "sched/task.hpp"

namespace rw::maps {

struct AppNode {
  std::string name;
  double load = 0;  // utilization demand (e.g. GHz-equivalents or U)
  sched::Criticality criticality = sched::Criticality::kSoft;
};

class ConcurrencyGraph {
 public:
  std::size_t add_app(std::string name, double load,
                      sched::Criticality crit = sched::Criticality::kSoft);

  /// Declare that apps a and b may run concurrently.
  void add_conflict(std::size_t a, std::size_t b);

  [[nodiscard]] const std::vector<AppNode>& apps() const { return apps_; }

  struct WorstCase {
    double load = 0;
    std::vector<std::size_t> clique;  // the apps realizing it
  };

  /// Heaviest clique by total load (exact branch-and-bound; app counts in
  /// a terminal are small). Every app alone is a clique, so the result is
  /// never empty when apps exist.
  [[nodiscard]] WorstCase worst_case_load() const;

  /// Minimum number of cores of `per_core_capacity` covering the worst
  /// case (the provisioning answer).
  [[nodiscard]] std::size_t cores_needed(double per_core_capacity) const;

 private:
  std::vector<AppNode> apps_;
  std::vector<std::vector<bool>> adj_;
};

}  // namespace rw::maps
