#include "ert/service.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <map>
#include <queue>
#include <stdexcept>

#include "maps/perf_bounds.hpp"

namespace rw::ert {
namespace {

/// Link bandwidth of the pool's mapping cost model (4 GB/s).
constexpr double kCommBytesPerPs = 0.004;
/// Jobs granted per arbitration pass (per pool).
constexpr std::size_t kBatchMax = 8;

}  // namespace

const char* qos_name(QosClass q) {
  switch (q) {
    case QosClass::kRealtime: return "realtime";
    case QosClass::kStandard: return "standard";
    case QosClass::kBatch: return "batch";
  }
  return "?";
}

QosClass qos_from_criticality(sched::Criticality c) {
  switch (c) {
    case sched::Criticality::kHard: return QosClass::kRealtime;
    case sched::Criticality::kSoft: return QosClass::kStandard;
    case sched::Criticality::kBestEffort: return QosClass::kBatch;
  }
  return QosClass::kStandard;
}

sched::Criticality criticality_from_qos(QosClass q) {
  switch (q) {
    case QosClass::kRealtime: return sched::Criticality::kHard;
    case QosClass::kStandard: return sched::Criticality::kSoft;
    case QosClass::kBatch: return sched::Criticality::kBestEffort;
  }
  return sched::Criticality::kSoft;
}

namespace detail {
struct JobNode {
  std::atomic<bool> done{false};
  // Written by the engine under its mutex before done is released;
  // readers only touch it after observing done (acquire).
  Result<JobResult> outcome{make_error("pending")};
};
}  // namespace detail

const Result<JobResult>& JobHandle::result() const {
  if (!node_) throw std::logic_error("result() on an empty JobHandle");
  while (!node_->done.load(std::memory_order_acquire)) service_->drain();
  return node_->outcome;
}

DurationPs TenantStats::percentile(double p) const {
  if (latencies.empty()) return 0;
  std::vector<DurationPs> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // Nearest-rank: smallest value with at least p% of samples at or below.
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

double TenantStats::mean_latency_us() const {
  if (latencies.empty()) return 0.0;
  double sum = 0;
  for (const DurationPs l : latencies) sum += static_cast<double>(l);
  return sum / static_cast<double>(latencies.size()) / 1e6;
}

Status validate_jobspec(const JobSpec& spec, std::size_t pool_capacity) {
  if (spec.graph.tasks().empty())
    return make_error("job '" + spec.name + "': empty task graph");
  if (!spec.graph.is_acyclic())
    return make_error("job '" + spec.name + "': cyclic task graph");
  if (spec.min_cores == 0)
    return make_error("job '" + spec.name + "': min_cores must be >= 1");
  if (spec.min_cores > spec.max_cores)
    return make_error("job '" + spec.name + "': min_cores > max_cores");
  if (spec.min_cores > pool_capacity)
    return make_error("job '" + spec.name + "': needs " +
                      std::to_string(spec.min_cores) + " cores, pool has " +
                      std::to_string(pool_capacity));
  if (spec.qos == QosClass::kRealtime && spec.deadline == 0)
    return make_error("job '" + spec.name +
                      "': realtime jobs need a deadline");
  return Status::ok_status();
}

DurationPs static_makespan_bound_ps(const JobSpec& spec,
                                    const ServiceConfig& cfg) {
  return maps::static_makespan_bound_any_gang(
             spec.graph,
             maps::PeDesc{sim::PeClass::kRisc, cfg.core_frequency},
             maps::simple_comm_cost(cfg.comm_latency, kCommBytesPerPs))
      .bound;
}

RunMetrics job_execution_metrics(const JobSpec& spec, std::size_t cores,
                                 const ServiceConfig& cfg) {
  const std::vector<maps::PeDesc> pes(
      cores, maps::PeDesc{sim::PeClass::kRisc, cfg.core_frequency});
  const maps::CommCost comm =
      maps::simple_comm_cost(cfg.comm_latency, kCommBytesPerPs);
  const maps::MappingResult mr = maps::heft_map(spec.graph, pes, comm);

  RunMetrics m;
  m.makespan = mr.makespan;
  if (mr.makespan > 0 && cores > 0) {
    double busy = 0;
    for (const auto& s : mr.slots)
      busy += static_cast<double>(s.finish - s.start);
    m.mean_core_utilization = busy / (static_cast<double>(cores) *
                                      static_cast<double>(mr.makespan));
  }
  m.deadline_misses =
      (spec.deadline > 0 && mr.makespan > spec.deadline) ? 1 : 0;
  const TimePs seq = maps::best_sequential_time(spec.graph, pes);
  m.extra.reserve(3);
  m.set_extra("ert.cores", static_cast<double>(cores));
  m.set_extra("ert.sequential_ps", static_cast<double>(seq));
  m.set_extra("ert.speedup", mr.speedup_vs(seq));
  return m;
}

Result<RunMetrics> run_jobspec_direct(const JobSpec& spec,
                                      const ServiceConfig& cfg) {
  RW_TRY_STATUS(validate_jobspec(spec, cfg.total_cores));
  const std::size_t cores = std::min(spec.max_cores, cfg.total_cores);
  return job_execution_metrics(spec, cores, cfg);
}

// ---------------------------------------------------------------------------
// Engine.

namespace {

struct Command {
  std::size_t tenant = 0;
  std::uint64_t seq = 0;
  JobSpec spec;
  std::shared_ptr<detail::JobNode> node;
};

struct PendingJob {
  std::size_t tenant = 0;
  std::uint64_t seq = 0;
  JobId id{};
  TimePs arrival = 0;
  JobSpec spec;
  std::shared_ptr<detail::JobNode> node;
};

struct RunningJob {
  PendingJob job;
  TimePs started = 0;
  TimePs finished = 0;
  std::vector<std::size_t> cores;
  RunMetrics metrics;
};

struct Event {
  TimePs time = 0;
  bool completion = false;
  std::size_t tenant = 0;
  std::uint64_t seq = 0;

  // Min-heap order: earliest first; completions before arrivals at the
  // same instant (frees cores first, matching run_gang_schedule); then
  // (tenant, seq) for a total deterministic order.
  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (completion != o.completion) return !completion;
    if (tenant != o.tenant) return tenant > o.tenant;
    return seq > o.seq;
  }
};

struct Tenant {
  TenantConfig cfg;
  // Reserved tenants own a carved-out pool; shared tenants use the
  // service-wide one.
  std::unique_ptr<sched::SpaceAllocator> pool;
  std::uint64_t next_seq = 0;   // guarded by the queue mutex
  std::uint64_t in_flight = 0;  // queued + running, engine-guarded
  std::size_t in_use_cores = 0;
  TenantStats stats;
};

int qos_rank(QosClass q) { return static_cast<int>(q); }

}  // namespace

struct Service::Impl {
  // Front end: the command queue tenants submit into (any thread).
  std::mutex queue_mu;
  std::vector<Command> queue;

  // Engine: virtual-time state, serialized by engine_mu.
  mutable std::mutex engine_mu;
  TimePs now = 0;
  std::uint64_t shared_share_sum_milli = 0;  // sum of shared shares *1000
  std::size_t reserved_total = 0;  // cores carved out for reserved tenants
  sched::SpaceAllocator shared_pool;

  // What shared tenants can ever be granted: reserved carve-outs stay
  // allocated in shared_pool for the service's lifetime, so capacity()
  // alone overstates the pool. Admission and the share cap both use this.
  [[nodiscard]] std::size_t shared_effective_capacity() const {
    return shared_pool.capacity() - reserved_total;
  }
  std::vector<Tenant> tenants;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::map<std::pair<std::size_t, std::uint64_t>, PendingJob> waiting;
  std::vector<PendingJob> ready;
  std::map<std::pair<std::size_t, std::uint64_t>, RunningJob> running;
  std::vector<sim::TraceEvent> trace;

  // Scratch of grant_pass_locked(), kept across passes so a pass
  // allocates only what it grants.
  struct GrantScratch {
    std::vector<double> deficit;          // per tenant
    std::vector<std::size_t> order;       // ready indices, grant order
    std::vector<bool> seen;               // per tenant
    std::vector<std::size_t> pool_grants; // per pool: shared, then tenants
    std::vector<bool> granted;            // per ready job
    std::vector<PendingJob> remaining;    // ready jobs left ungranted
  } scratch;

  explicit Impl(const ServiceConfig& cfg) : shared_pool(cfg.total_cores) {}
};

Service::Service(ServiceConfig cfg)
    : cfg_(cfg), impl_(std::make_unique<Impl>(cfg)) {
  if (cfg_.total_cores == 0)
    throw std::invalid_argument("ert::Service needs cores");
}

Service::~Service() = default;

Result<Session> Service::open_session(TenantConfig tenant) {
  std::scoped_lock lock(impl_->engine_mu, impl_->queue_mu);
  if (tenant.name.empty()) return make_error("tenant needs a name");
  for (const Tenant& t : impl_->tenants)
    if (t.cfg.name == tenant.name)
      return make_error("tenant '" + tenant.name + "' already registered");
  if (!(tenant.share > 0.0) || tenant.share > 1.0)
    return make_error("tenant '" + tenant.name +
                      "': share must be in (0, 1]");

  Tenant t;
  t.cfg = tenant;
  t.stats.name = tenant.name;
  if (tenant.reserved) {
    const auto want = static_cast<std::size_t>(
        tenant.share * static_cast<double>(cfg_.total_cores));
    if (want == 0)
      return make_error("tenant '" + tenant.name +
                        "': reservation rounds to zero cores");
    // Carve the reservation out of the shared pool: the highest free
    // indices, so shared-pool grants (lowest-first) keep stable indices.
    if (impl_->shared_pool.available() < want)
      return make_error("tenant '" + tenant.name + "': reservation of " +
                        std::to_string(want) +
                        " cores exceeds the free shared pool");
    const std::size_t spare = impl_->shared_pool.available() - want;
    std::vector<std::size_t> keep;
    if (spare > 0) keep = impl_->shared_pool.allocate(spare, spare);
    const std::vector<std::size_t> carved =
        impl_->shared_pool.allocate(want, want);
    if (!keep.empty()) impl_->shared_pool.release(keep);
    if (carved.back() - carved.front() + 1 != carved.size()) {
      impl_->shared_pool.release(carved);
      return make_error("tenant '" + tenant.name +
                        "': shared pool fragmented (open reserved sessions "
                        "before submitting work)");
    }
    // Dedicated pool over the carved contiguous index range.
    t.pool = std::make_unique<sched::SpaceAllocator>(carved.size(),
                                                     carved.front());
    impl_->reserved_total += carved.size();
  } else {
    impl_->shared_share_sum_milli +=
        static_cast<std::uint64_t>(tenant.share * 1000.0 + 0.5);
  }
  const std::size_t index = impl_->tenants.size();
  impl_->tenants.push_back(std::move(t));
  return Session(this, index, tenant.name);
}

JobHandle Service::submit(std::size_t tenant, JobSpec spec) {
  auto node = std::make_shared<detail::JobNode>();
  {
    std::lock_guard lock(impl_->queue_mu);
    Command cmd;
    cmd.tenant = tenant;
    cmd.seq = impl_->tenants.at(tenant).next_seq++;
    cmd.spec = std::move(spec);
    cmd.node = node;
    impl_->queue.push_back(std::move(cmd));
  }
  return JobHandle(this, std::move(node));
}

TimePs Service::now() const {
  std::lock_guard lock(impl_->engine_mu);
  return impl_->now;
}

TenantStats Service::tenant_stats(std::size_t tenant) const {
  std::lock_guard lock(impl_->engine_mu);
  return impl_->tenants.at(tenant).stats;
}

std::vector<TenantStats> Service::all_tenant_stats() const {
  std::lock_guard lock(impl_->engine_mu);
  std::vector<TenantStats> out;
  out.reserve(impl_->tenants.size());
  for (const Tenant& t : impl_->tenants) out.push_back(t.stats);
  return out;
}

std::vector<sim::TraceEvent> Service::trace() const {
  std::lock_guard lock(impl_->engine_mu);
  return impl_->trace;
}

namespace {

/// Complete a node under the engine lock, then publish.
void complete(const std::shared_ptr<detail::JobNode>& node,
              Result<JobResult> outcome) {
  node->outcome = std::move(outcome);
  node->done.store(true, std::memory_order_release);
}

}  // namespace

void Service::drain() {
  Impl& im = *impl_;
  std::lock_guard engine(im.engine_mu);

  // --- Ingest: pull the command queue through the admission controller's
  // validation half. Per-tenant outcomes depend only on per-tenant state
  // (commands of one tenant arrive in sequence order), so cross-tenant
  // queue interleaving cannot change any result.
  std::vector<Command> batch;
  {
    std::lock_guard q(im.queue_mu);
    batch.swap(im.queue);
  }
  for (Command& cmd : batch) {
    Tenant& t = im.tenants.at(cmd.tenant);
    ++t.stats.submitted;
    // Shared tenants validate against the effective pool (capacity minus
    // reserved carve-outs): a job wider than that could be admitted but
    // never granted, and its handle would spin in drain() forever.
    // Reservations only happen in open_session, which excludes drain(),
    // and drain() runs every admitted job to completion — so the
    // effective capacity can never shrink under an already-admitted job.
    const std::size_t capacity =
        t.pool ? t.pool->capacity() : im.shared_effective_capacity();
    if (Status v = validate_jobspec(cmd.spec, capacity); !v.ok()) {
      ++t.stats.rejected;
      complete(cmd.node, v.error());
      continue;
    }
    // Static admission (opt-in): a realtime job whose conservative
    // execution bound plus one arbitration pass cannot fit its deadline
    // would miss even alone on an idle machine — reject at submit with
    // a typed reason instead of queueing it.
    if (cfg_.static_admission && cmd.spec.qos == QosClass::kRealtime &&
        cmd.spec.deadline > 0) {
      const DurationPs bound = static_makespan_bound_ps(cmd.spec, cfg_);
      if (cfg_.arbitration_latency + bound > cmd.spec.deadline) {
        ++t.stats.rejected;
        complete(cmd.node,
                 make_error("static-infeasible: job '" + cmd.spec.name +
                            "': static makespan bound " +
                            std::to_string(bound) + " ps + arbitration " +
                            std::to_string(cfg_.arbitration_latency) +
                            " ps exceeds deadline " +
                            std::to_string(cmd.spec.deadline) + " ps"));
        continue;
      }
    }
    if (t.in_flight >= t.cfg.max_pending) {
      ++t.stats.rejected;
      complete(cmd.node,
               make_error("tenant '" + t.cfg.name +
                          "': admission queue full (max_pending=" +
                          std::to_string(t.cfg.max_pending) + ")"));
      continue;
    }
    ++t.in_flight;
    PendingJob job;
    job.tenant = cmd.tenant;
    job.seq = cmd.seq;
    // Deterministic id independent of cross-tenant submission order.
    assert(cmd.tenant < (1ULL << 32) && cmd.seq < (1ULL << 32));
    job.id = JobId{(static_cast<std::uint64_t>(cmd.tenant) << 32) |
                   static_cast<std::uint64_t>(cmd.seq)};
    job.arrival = std::max(cmd.spec.arrival, im.now);
    job.spec = std::move(cmd.spec);
    job.node = std::move(cmd.node);
    im.events.push(Event{job.arrival, false, job.tenant, job.seq});
    im.waiting.emplace(std::make_pair(job.tenant, job.seq), std::move(job));
  }

  // --- Event loop: apply every event at an instant, then one grant pass.
  while (!im.events.empty()) {
    const TimePs t = im.events.top().time;
    im.now = std::max(im.now, t);
    while (!im.events.empty() && im.events.top().time == t) {
      const Event ev = im.events.top();
      im.events.pop();
      if (ev.completion) {
        finish_job_locked(ev.tenant, ev.seq);
      } else {
        const auto it = im.waiting.find({ev.tenant, ev.seq});
        assert(it != im.waiting.end());
        im.ready.push_back(std::move(it->second));
        im.waiting.erase(it);
      }
    }
    grant_pass_locked();
  }
}

void Service::finish_job_locked(std::size_t tenant_idx, std::uint64_t seq) {
  Impl& im = *impl_;
  const auto it = im.running.find({tenant_idx, seq});
  assert(it != im.running.end());
  RunningJob run = std::move(it->second);
  im.running.erase(it);

  Tenant& t = im.tenants.at(tenant_idx);
  (t.pool ? *t.pool : im.shared_pool).release(run.cores);
  t.in_use_cores -= run.cores.size();
  --t.in_flight;

  JobResult res;
  res.id = run.job.id;
  res.name = run.job.spec.name;
  res.tenant = t.cfg.name;
  res.qos = run.job.spec.qos;
  res.sequence = run.job.seq;
  res.submitted = run.job.arrival;
  res.started = run.started;
  res.finished = run.finished;
  res.cores = run.cores.size();
  res.metrics = std::move(run.metrics);
  const DurationPs latency = res.finished - res.submitted;
  res.deadline_met =
      run.job.spec.deadline == 0 || latency <= run.job.spec.deadline;

  ++t.stats.completed;
  if (!res.deadline_met) ++t.stats.deadline_misses;
  t.stats.latencies.push_back(latency);
  std::uint64_t h = t.stats.fingerprint;
  h = fnv::fold_u64(h, res.sequence);
  h = fnv::fold_u64(h, res.cores);
  h = fnv::fold_u64(h, res.started);
  h = fnv::fold_u64(h, res.finished);
  h = fnv::fold_u64(h, res.metrics.makespan);
  t.stats.fingerprint = h;

  complete(run.job.node, std::move(res));
}

void Service::grant_pass_locked() {
  Impl& im = *impl_;
  if (im.ready.empty()) return;

  // Deficit-weighted order: QoS class first, then the tenant with the
  // least committed work relative to its share, then FIFO.
  Impl::GrantScratch& sc = im.scratch;
  std::vector<double>& deficit = sc.deficit;
  deficit.resize(im.tenants.size());
  for (std::size_t i = 0; i < im.tenants.size(); ++i) {
    const Tenant& t = im.tenants[i];
    deficit[i] = t.stats.core_ps / t.cfg.share;
  }
  std::vector<std::size_t>& order = sc.order;
  order.resize(im.ready.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const PendingJob& x = im.ready[a];
    const PendingJob& y = im.ready[b];
    const int rx = qos_rank(x.spec.qos);
    const int ry = qos_rank(y.spec.qos);
    if (rx != ry) return rx < ry;
    if (deficit[x.tenant] != deficit[y.tenant])
      return deficit[x.tenant] < deficit[y.tenant];
    if (x.arrival != y.arrival) return x.arrival < y.arrival;
    if (x.tenant != y.tenant) return x.tenant < y.tenant;
    return x.seq < y.seq;
  });

  // Shared-pool contention: at least two shared tenants want cores now.
  // Under contention the share cap applies; when alone the pool is fully
  // work-conserving.
  std::size_t shared_tenants_waiting = 0;
  {
    std::vector<bool>& seen = sc.seen;
    seen.assign(im.tenants.size(), false);
    for (const PendingJob& j : im.ready) {
      if (!im.tenants[j.tenant].pool && !seen[j.tenant]) {
        seen[j.tenant] = true;
        ++shared_tenants_waiting;
      }
    }
  }
  const bool contended = shared_tenants_waiting > 1;
  const std::size_t shared_capacity = im.shared_effective_capacity();

  // Batcher: grants are packed into arbitration batches per pool; batch
  // k of a pool is granted at now + (k+1)*arbitration_latency (one
  // arbitration operation covers up to kBatchMax gangs).
  std::vector<std::size_t>& pool_grants = sc.pool_grants;
  pool_grants.assign(im.tenants.size() + 1, 0);
  // A realtime job the shared pool cannot serve yet blocks lower classes
  // from backfilling in front of it (head-of-line only across classes —
  // within a class, moldable jobs keep backfilling).
  bool shared_blocked_below_realtime = false;

  std::vector<bool>& granted = sc.granted;
  granted.assign(im.ready.size(), false);
  auto try_grant = [&](std::size_t idx, bool enforce_cap) -> bool {
    PendingJob& job = im.ready[idx];
    Tenant& t = im.tenants[job.tenant];
    sched::SpaceAllocator& pool = t.pool ? *t.pool : im.shared_pool;
    const std::size_t pool_id = t.pool ? job.tenant + 1 : 0;

    std::size_t limit = pool.available();
    if (!t.pool && contended && enforce_cap) {
      // Share cap: under contention a tenant may not hold more than its
      // normalized share of the effective pool — capacity minus reserved
      // carve-outs, the cores shared tenants can actually be granted —
      // rounded up, so every tenant with a positive share can always
      // hold at least one core.
      const double norm =
          t.cfg.share * 1000.0 /
          static_cast<double>(std::max<std::uint64_t>(
              1, im.shared_share_sum_milli));
      const auto cap = static_cast<std::size_t>(std::ceil(
          norm * static_cast<double>(shared_capacity)));
      limit = t.in_use_cores >= cap
                  ? 0
                  : std::min(limit, cap - t.in_use_cores);
    }
    const std::size_t want_max = std::min(job.spec.max_cores, limit);
    if (want_max < job.spec.min_cores) {
      if (!t.pool && job.spec.qos == QosClass::kRealtime)
        shared_blocked_below_realtime = true;
      return false;
    }
    std::vector<std::size_t> cores =
        pool.allocate(job.spec.min_cores, want_max);
    if (cores.empty()) return false;

    const std::size_t batch_index = pool_grants[pool_id] / kBatchMax;
    ++pool_grants[pool_id];
    const TimePs start =
        im.now +
        cfg_.arbitration_latency * static_cast<TimePs>(batch_index + 1);

    RunningJob run;
    run.metrics = job_execution_metrics(job.spec, cores.size(), cfg_);
    run.started = start;
    run.finished = start + run.metrics.makespan;
    run.cores = std::move(cores);
    // Charge committed work at grant time so the deficit order reflects
    // in-flight gangs, not just finished ones.
    t.stats.core_ps += static_cast<double>(run.cores.size()) *
                       static_cast<double>(run.metrics.makespan);
    t.in_use_cores += run.cores.size();
    t.stats.peak_cores = std::max(t.stats.peak_cores, t.in_use_cores);

    if (cfg_.record_trace) {
      sim::TraceEvent ev;
      ev.core = sim::CoreId{static_cast<std::uint32_t>(run.cores.front())};
      ev.label = t.cfg.name + "/" + job.spec.name + "#" +
                 std::to_string(job.seq);
      ev.a = run.cores.size();
      ev.time = run.started;
      ev.kind = sim::TraceKind::kComputeStart;
      im.trace.push_back(ev);
      ev.time = run.finished;
      ev.kind = sim::TraceKind::kComputeEnd;
      im.trace.push_back(ev);
    }

    im.events.push(Event{run.finished, true, job.tenant, job.seq});
    run.job = std::move(job);
    granted[idx] = true;
    im.running.emplace(std::make_pair(run.job.tenant, run.job.seq),
                       std::move(run));
    return true;
  };

  for (const std::size_t idx : order) {
    const PendingJob& job = im.ready[idx];
    if (!im.tenants[job.tenant].pool && shared_blocked_below_realtime &&
        job.spec.qos != QosClass::kRealtime)
      continue;
    try_grant(idx, /*enforce_cap=*/true);
  }

  // Work-conserving guarantee: when the capped pass granted nothing from
  // the shared pool and the pool sits completely idle, the share cap is
  // the only thing between a ready job and otherwise-wasted cores (e.g.
  // every contender's min_cores exceeds its cap — capped grants alone
  // would leave those jobs ready forever with no completion event to
  // wake them). Lift the cap for exactly one grant — the deficit order
  // picks whose — so the engine always makes progress; the completion it
  // schedules re-runs the capped pass for everyone else.
  if (pool_grants[0] == 0 &&
      im.shared_pool.available() == shared_capacity) {
    for (const std::size_t idx : order) {
      if (granted[idx] || im.tenants[im.ready[idx].tenant].pool) continue;
      if (try_grant(idx, /*enforce_cap=*/false)) break;
    }
  }

  // The ungranted jobs go back to ready; the old ready vector keeps its
  // capacity as the next pass's scratch.
  std::vector<PendingJob>& remaining = sc.remaining;
  for (std::size_t i = 0; i < im.ready.size(); ++i)
    if (!granted[i]) remaining.push_back(std::move(im.ready[i]));
  im.ready.swap(remaining);
  remaining.clear();
}

}  // namespace rw::ert
