// rw::ert job model — the one sanctioned description of "a workload to
// run" across every subsystem.
//
// The paper's thesis is that MPSoC programming needs stable software
// roads: tooling layers that outlive any one platform. Until this module,
// each subsystem exposed its own ad-hoc run description (maps::multiapp
// task graphs, harness closures, bench-local structs). A JobSpec is the
// single source of truth: a task graph plus QoS and resource demands.
// Adapters (adapters.hpp) convert the legacy descriptions to and from it,
// and the Service (service.hpp) is the runtime that executes them for N
// concurrent tenants.
#pragma once

#include <climits>
#include <cstdint>
#include <memory>
#include <string>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/run_metrics.hpp"
#include "common/units.hpp"
#include "maps/taskgraph.hpp"
#include "sched/task.hpp"

namespace rw::ert {

struct JobTag {};
// 64-bit: tenant index in the high word, per-tenant sequence in the low
// word — wide enough that the packing cannot silently collide.
using JobId = Id<JobTag, std::uint64_t>;

/// Deadline classes, mirroring the paper's static-for-hard /
/// dynamic-best-effort split (Sec. IV): realtime jobs are granted first
/// and carry a deadline; standard jobs are the fair-share default; batch
/// jobs absorb leftover capacity.
enum class QosClass : std::uint8_t { kRealtime, kStandard, kBatch };

const char* qos_name(QosClass q);
QosClass qos_from_criticality(sched::Criticality c);
sched::Criticality criticality_from_qos(QosClass q);

/// One job: a task graph with QoS and resource demands. This is the
/// api_redesign surface — benches, tools and the harness all describe
/// work as a JobSpec and run it through an ert::Session.
struct JobSpec {
  std::string name = "job";
  maps::TaskGraph graph;  // the unit of work (maps/CIC adapters fill it)

  QosClass qos = QosClass::kStandard;
  DurationPs deadline = 0;  // end-to-end budget; required for kRealtime
  DurationPs period = 0;    // release period (metadata for periodic
                            // adapters such as maps::multiapp; the
                            // service itself runs one release per submit)
  TimePs arrival = 0;       // requested virtual submission time

  std::size_t min_cores = 1;        // gang demand (space-shared, Sec. II-B)
  std::size_t max_cores = SIZE_MAX; // moldable up to this many cores
};

/// One completed job. `metrics` holds the pure execution metrics on the
/// granted gang and is bit-identical to the direct path
/// (run_jobspec_direct) for the same core count — the service adds
/// nothing to them; queueing shows up only in the timestamps here.
struct JobResult {
  JobId id{};
  std::string name;
  std::string tenant;
  QosClass qos = QosClass::kStandard;
  std::uint64_t sequence = 0;  // per-tenant submission sequence

  TimePs submitted = 0;  // virtual time the job entered the queue
  TimePs started = 0;    // gang granted (after admission + arbitration)
  TimePs finished = 0;
  std::size_t cores = 0;     // gang size granted
  bool deadline_met = true;  // end-to-end latency vs spec.deadline

  RunMetrics metrics;  // execution on the granted gang (direct-path equal)

  [[nodiscard]] DurationPs queue_wait() const { return started - submitted; }
  [[nodiscard]] DurationPs latency() const { return finished - submitted; }
};

class Service;

namespace detail {
struct JobNode;
}

/// Future-style handle for a submitted job. `result()` pumps the owning
/// service until this job completes (single-tenant callers never touch
/// Service::drain directly); completion is Result-based — admission
/// rejections and validation failures surface as Errors, not exceptions.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return node_ != nullptr; }
  /// The job's outcome; drains the owning service until available.
  [[nodiscard]] const Result<JobResult>& result() const;

 private:
  friend class Service;
  JobHandle(Service* service, std::shared_ptr<detail::JobNode> node)
      : service_(service), node_(std::move(node)) {}

  Service* service_ = nullptr;
  std::shared_ptr<detail::JobNode> node_;
};

}  // namespace rw::ert
