// rw::ert — multi-tenant platform job service.
//
// Modeled on XRT's embedded-runtime command-queue scheduler: N client
// tenants concurrently submit task-graph jobs through Sessions into one
// command queue; a deterministic virtual-time engine runs
//
//   queue -> admission controller -> batcher -> space allocator
//
// over the shared core pool. Per-tenant QoS: deadline classes
// (ert::QosClass), fair shares (deficit-ordered grants with a
// work-conserving share cap under contention — when no capped grant can
// proceed and the pool would otherwise idle, one grant may exceed the
// cap so every admitted job makes progress), and optional hard
// reservations (a carved-out
// SpaceAllocator pool, the static-reservation half of the paper's
// Sec. IV split — a reserved tenant's schedule is a pure function of its
// own submissions, which is the isolation property test_ert holds).
//
// Determinism contract: results are a pure function of the set of
// submitted (tenant, sequence, JobSpec) triples — never of thread timing
// or submission interleaving. Sessions may submit from any thread (the
// command queue is mutex-protected); the engine orders work by
// (arrival, qos, tenant deficit, tenant, sequence) and grants cores
// lowest-index-first, so fixed specs => byte-identical results. A
// single-tenant single-job run reproduces run_jobspec_direct() exactly.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/result.hpp"
#include "common/run_metrics.hpp"
#include "common/units.hpp"
#include "ert/job.hpp"
#include "maps/mapping.hpp"
#include "sched/spacealloc.hpp"
#include "sim/trace.hpp"

namespace rw::ert {

/// Per-tenant QoS contract, fixed at session open.
struct TenantConfig {
  std::string name;
  double share = 1.0;     // fair-share weight; with `reserved`, the
                          // fraction of the machine carved out
  bool reserved = false;  // hard partition: floor(share*cores) dedicated
  std::uint64_t max_pending = UINT64_MAX;  // admission cap (queued+running)
};

struct ServiceConfig {
  std::size_t total_cores = 8;
  HertzT core_frequency = mhz(400);
  // Homogeneous RISC pool: reservations carve index ranges, so per-core
  // heterogeneity would make "which cores" observable; keep it uniform.
  DurationPs comm_latency = nanoseconds(150);
  DurationPs arbitration_latency = microseconds(5);  // per grant batch
  bool record_trace = true;   // per-job compute events for rw::perf export

  // Static admission precheck (ISSUE 7): reject a kRealtime job at
  // submit when its gang-size-independent static makespan bound
  // (maps::static_makespan_bound_any_gang under this config's cost
  // model) plus one arbitration pass already exceeds its deadline — the
  // job would miss even on an otherwise-idle machine, so burn no shared
  // cores discovering that dynamically. Rejections carry a typed
  // "static-infeasible:" reason. Off by default: the dynamic behavior
  // stays the reference.
  bool static_admission = false;
};

/// The admission precheck's bound: every task priced on one pool core,
/// every edge charged as a cross-PE transfer — an upper bound on the
/// HEFT makespan of ANY gang this service could grant the job.
[[nodiscard]] DurationPs static_makespan_bound_ps(const JobSpec& spec,
                                                  const ServiceConfig& cfg);

/// Aggregated per-tenant counters plus the completion-order latency
/// stream and a deterministic fingerprint over completion records —
/// the per-tenant metrics surface the benches and the isolation property
/// test consume.
struct TenantStats {
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;        // admission-controller rejections
  std::uint64_t deadline_misses = 0; // end-to-end, realtime/deadline jobs
  std::size_t peak_cores = 0;        // max cores held at once
  double core_ps = 0;                // core-picoseconds consumed
  std::vector<DurationPs> latencies; // submit->finish, completion order

  /// FNV-1a over (sequence, cores, started, finished, makespan) of every
  /// completed job, in completion order. For a reserved tenant this is
  /// invariant under any other tenant's load or submission order.
  std::uint64_t fingerprint = fnv::kOffset;

  [[nodiscard]] DurationPs percentile(double p) const;  // p in [0,100]
  [[nodiscard]] double mean_latency_us() const;
};

class Session;

/// The multi-tenant job service. Thread-safe for submission; the engine
/// itself is serialized (one drain at a time) and fully deterministic.
class Service {
 public:
  explicit Service(ServiceConfig cfg);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Register a tenant. Fails on duplicate/empty names, shares outside
  /// (0, 1], or a reservation the remaining shared pool cannot cover.
  [[nodiscard]] Result<Session> open_session(TenantConfig tenant);

  /// Run the engine until every job queued so far has completed. Any
  /// thread may call this; JobHandle::result() calls it on demand.
  /// Jobs submitted later with arrivals before the engine's clock are
  /// clamped to it (virtual time never rewinds).
  void drain();

  /// Engine virtual time (advances only inside drain()).
  [[nodiscard]] TimePs now() const;

  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  /// Snapshot of a tenant's stats (by session index, in open order).
  [[nodiscard]] TenantStats tenant_stats(std::size_t tenant) const;
  [[nodiscard]] std::vector<TenantStats> all_tenant_stats() const;

  /// Per-job ComputeStart/ComputeEnd events (core = first core of the
  /// granted gang, label = "tenant/job#seq"), ready for the rw::perf
  /// exporters (perf::to_chrome_trace). Empty when record_trace is off.
  [[nodiscard]] std::vector<sim::TraceEvent> trace() const;

 private:
  friend class Session;
  friend class JobHandle;

  struct Impl;
  JobHandle submit(std::size_t tenant, JobSpec spec);
  void finish_job_locked(std::size_t tenant_idx, std::uint64_t seq);
  void grant_pass_locked();

  ServiceConfig cfg_;
  std::unique_ptr<Impl> impl_;
};

/// A tenant's lightweight submission endpoint. Copyable; all state lives
/// in the Service, which must outlive its sessions and handles.
class Session {
 public:
  /// Enqueue a job; safe to call from any thread.
  [[nodiscard]] JobHandle submit(JobSpec spec) {
    return service_->submit(tenant_, std::move(spec));
  }
  [[nodiscard]] const std::string& tenant_name() const { return name_; }
  [[nodiscard]] std::size_t tenant_index() const { return tenant_; }
  [[nodiscard]] Service& service() const { return *service_; }

 private:
  friend class Service;
  Session(Service* service, std::size_t tenant, std::string name)
      : service_(service), tenant_(tenant), name_(std::move(name)) {}

  Service* service_;
  std::size_t tenant_;
  std::string name_;
};

/// Execution metrics of `spec` on a gang of `cores` homogeneous cores
/// under `cfg`'s cost model (HEFT on the gang; utilization from the
/// schedule slots). This is THE job execution model: the service calls it
/// per grant, and the direct path below is the same call — which is what
/// makes the single-tenant identity gate exact rather than approximate.
[[nodiscard]] RunMetrics job_execution_metrics(const JobSpec& spec,
                                               std::size_t cores,
                                               const ServiceConfig& cfg);

/// The direct path: run one spec on an otherwise-idle machine, no
/// service in the loop (the gang is min(max_cores, total)). A
/// single-tenant single-job Session run must reproduce this exactly.
[[nodiscard]] Result<RunMetrics> run_jobspec_direct(const JobSpec& spec,
                                                    const ServiceConfig& cfg);

/// Validation shared by the admission controller and the direct path.
/// `pool_capacity` is the most the caller's pool can ever grant — for a
/// shared tenant that is total cores minus reserved carve-outs, so a job
/// that can never fit is rejected instead of queued forever.
[[nodiscard]] Status validate_jobspec(const JobSpec& spec,
                                      std::size_t pool_capacity);

}  // namespace rw::ert
