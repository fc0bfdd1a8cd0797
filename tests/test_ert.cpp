// rw::ert — the multi-tenant job service and its adapters.
//
// The load-bearing properties:
//   * sched::SpaceAllocator accounting (available()/in_use(), the
//     admission controller's view);
//   * a single-tenant single-job Session reproduces run_jobspec_direct()
//     exactly (the service adds zero residue to execution metrics);
//   * determinism: results are a pure function of the submitted
//     (tenant, seq, spec) set — concurrent submitters, submission
//     interleaving and neighbor load change nothing they shouldn't;
//   * tenant isolation: reserved tenants' completion fingerprints are
//     invariant under any other tenant's behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "ert/adapters.hpp"
#include "ert/driver.hpp"
#include "ert/service.hpp"
#include "ert/templates.hpp"
#include "harness/harness.hpp"
#include "maps/workloads.hpp"
#include "sched/spacealloc.hpp"
#include "tools/cli_common.hpp"

namespace rw::ert {
namespace {

// ----------------------------------------------------------- SpaceAllocator

TEST(SpaceAllocator, AccountingAndLowestFirstAllocation) {
  sched::SpaceAllocator alloc(4);
  EXPECT_EQ(alloc.capacity(), 4u);
  EXPECT_EQ(alloc.available(), 4u);
  EXPECT_EQ(alloc.in_use(), 0u);

  const auto a = alloc.allocate(2, 2);
  ASSERT_EQ(a, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(alloc.available(), 2u);
  EXPECT_EQ(alloc.in_use(), 2u);

  // Moldable: take as many as available up to max.
  const auto b = alloc.allocate(1, 3);
  ASSERT_EQ(b, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(alloc.available(), 0u);

  // min > available: nothing allocated, state untouched.
  EXPECT_TRUE(alloc.allocate(1, 1).empty());
  EXPECT_EQ(alloc.in_use(), 4u);

  alloc.release(a);
  EXPECT_EQ(alloc.available(), 2u);
  // Freed indices are reused lowest-first.
  EXPECT_EQ(alloc.allocate(1, 1), (std::vector<std::size_t>{0}));
}

TEST(SpaceAllocator, BaseOffsetShiftsIndices) {
  sched::SpaceAllocator alloc(3, /*base=*/8);
  EXPECT_EQ(alloc.base(), 8u);
  const auto a = alloc.allocate(2, 2);
  EXPECT_EQ(a, (std::vector<std::size_t>{8, 9}));
  alloc.release(a);
  EXPECT_EQ(alloc.available(), 3u);
}

// ------------------------------------------------------------ direct path

TEST(ErtService, SingleJobReproducesDirectPathExactly) {
  for (const std::string& name : template_names()) {
    const JobSpec spec = make_template(name);
    ServiceConfig cfg;
    const auto direct = run_jobspec_direct(spec, cfg);
    ASSERT_TRUE(direct.ok()) << name;

    Service service(cfg);
    auto session = service.open_session(TenantConfig{.name = "solo"});
    ASSERT_TRUE(session.ok());
    const JobHandle handle = session.value().submit(spec);
    const auto& outcome = handle.result();
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();

    // Execution metrics are bit-identical; queueing lives only in the
    // JobResult timestamps.
    EXPECT_TRUE(outcome.value().metrics.sim_equal(direct.value())) << name;
    EXPECT_EQ(outcome.value().cores,
              std::min(spec.max_cores, cfg.total_cores));
    EXPECT_EQ(outcome.value().started, cfg.arbitration_latency);
    EXPECT_EQ(outcome.value().finished,
              cfg.arbitration_latency + direct.value().makespan);
  }
}

TEST(ErtService, HandleStatesAndRepeatedResultCalls) {
  JobHandle empty;
  EXPECT_FALSE(empty.valid());

  Service service(ServiceConfig{});
  auto session = service.open_session(TenantConfig{.name = "t"});
  ASSERT_TRUE(session.ok());
  const JobHandle h = session.value().submit(make_template("diamond"));
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(service.tenant_stats(0).completed, 0u);  // nothing drained yet
  ASSERT_TRUE(h.result().ok());
  EXPECT_EQ(service.tenant_stats(0).completed, 1u);
  // result() is idempotent.
  EXPECT_EQ(h.result().value().finished, h.result().value().finished);
}

// --------------------------------------------------------------- admission

TEST(ErtService, ValidationRejectionsSurfaceAsErrors) {
  Service service(ServiceConfig{.total_cores = 4});
  auto session = service.open_session(TenantConfig{.name = "t"});
  ASSERT_TRUE(session.ok());

  JobSpec empty;
  empty.name = "empty";
  const JobHandle h1 = session.value().submit(empty);
  ASSERT_FALSE(h1.result().ok());
  EXPECT_NE(h1.result().error().to_string().find("empty task graph"),
            std::string::npos);

  JobSpec cyclic = make_template("pipeline");
  cyclic.graph.add_edge(cyclic.graph.tasks().back().id,
                        cyclic.graph.tasks().front().id, 64);
  EXPECT_FALSE(session.value().submit(cyclic).result().ok());

  JobSpec wide = make_template("pipeline");
  wide.min_cores = 5;  // pool only has 4
  wide.max_cores = 8;
  EXPECT_FALSE(session.value().submit(wide).result().ok());

  JobSpec inverted = make_template("pipeline");
  inverted.min_cores = 2;
  inverted.max_cores = 1;
  EXPECT_FALSE(session.value().submit(inverted).result().ok());

  JobSpec rt = make_template("pipeline");
  rt.qos = QosClass::kRealtime;  // no deadline
  EXPECT_FALSE(session.value().submit(rt).result().ok());

  const TenantStats stats = service.tenant_stats(0);
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ErtService, MaxPendingCapsAdmission) {
  Service service(ServiceConfig{});
  auto session = service.open_session(
      TenantConfig{.name = "t", .max_pending = 2});
  ASSERT_TRUE(session.ok());
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i)
    handles.push_back(session.value().submit(make_template("diamond")));
  // All four enter one ingest batch: two admitted, two rejected.
  EXPECT_TRUE(handles[0].result().ok());
  EXPECT_TRUE(handles[1].result().ok());
  ASSERT_FALSE(handles[2].result().ok());
  EXPECT_NE(handles[2].result().error().to_string().find("admission"),
            std::string::npos);
  EXPECT_FALSE(handles[3].result().ok());
  const TenantStats stats = service.tenant_stats(0);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 2u);

  // The cap tracks in-flight work, not lifetime totals: after completion
  // the tenant can submit again.
  EXPECT_TRUE(session.value().submit(make_template("diamond")).result().ok());
}

TEST(ErtService, OpenSessionRejectsBadTenantConfigs) {
  Service service(ServiceConfig{.total_cores = 4});
  EXPECT_FALSE(service.open_session(TenantConfig{.name = ""}).ok());
  ASSERT_TRUE(service.open_session(TenantConfig{.name = "a"}).ok());
  EXPECT_FALSE(service.open_session(TenantConfig{.name = "a"}).ok());
  EXPECT_FALSE(
      service.open_session(TenantConfig{.name = "b", .share = 0.0}).ok());
  EXPECT_FALSE(
      service.open_session(TenantConfig{.name = "c", .share = 1.5}).ok());
  // Reservation rounding to zero cores is an error, not a silent grant.
  EXPECT_FALSE(service
                   .open_session(TenantConfig{
                       .name = "d", .share = 0.1, .reserved = true})
                   .ok());
  // A reservation larger than the free pool is refused.
  ASSERT_TRUE(service
                  .open_session(TenantConfig{
                      .name = "e", .share = 0.75, .reserved = true})
                  .ok());
  EXPECT_FALSE(service
                   .open_session(TenantConfig{
                       .name = "f", .share = 0.5, .reserved = true})
                   .ok());
}

// -------------------------------------------------------------- QoS order

TEST(ErtService, RealtimeOutranksStandardOutranksBatch) {
  // One core: three same-instant arrivals must start in QoS order.
  ServiceConfig cfg;
  cfg.total_cores = 1;
  Service service(cfg);
  auto session = service.open_session(TenantConfig{.name = "t"});
  ASSERT_TRUE(session.ok());

  JobSpec batch = make_template("cic_chain");
  batch.qos = QosClass::kBatch;
  batch.deadline = 0;
  JobSpec standard = make_template("cic_chain");
  standard.qos = QosClass::kStandard;
  standard.deadline = 0;
  JobSpec realtime = make_template("cic_chain");
  realtime.qos = QosClass::kRealtime;
  realtime.deadline = milliseconds(10);

  // Submit in inverted priority order; grants must not follow it.
  const JobHandle hb = session.value().submit(batch);
  const JobHandle hs = session.value().submit(standard);
  const JobHandle hr = session.value().submit(realtime);
  ASSERT_TRUE(hb.result().ok());
  ASSERT_TRUE(hs.result().ok());
  ASSERT_TRUE(hr.result().ok());
  EXPECT_LT(hr.result().value().started, hs.result().value().started);
  EXPECT_LT(hs.result().value().started, hb.result().value().started);
}

TEST(ErtService, FairShareCapsSplitContendedPool) {
  // Two equal-share tenants flooding 8 cores with machine-wide gangs:
  // under contention each is capped at half the pool, so every granted
  // gang is exactly 4 wide and the two tenants' records are identical.
  ServiceConfig cfg;
  Service service(cfg);
  auto a = service.open_session(TenantConfig{.name = "a", .share = 0.5});
  auto b = service.open_session(TenantConfig{.name = "b", .share = 0.5});
  ASSERT_TRUE(a.ok() && b.ok());

  std::vector<JobHandle> handles;
  for (int j = 0; j < 4; ++j) {
    handles.push_back(a.value().submit(make_template("forkjoin")));
    handles.push_back(b.value().submit(make_template("forkjoin")));
  }
  for (const JobHandle& h : handles) {
    ASSERT_TRUE(h.result().ok());
    EXPECT_LE(h.result().value().cores, 4u);
  }
  const TenantStats sa = service.tenant_stats(0);
  const TenantStats sb = service.tenant_stats(1);
  EXPECT_EQ(sa.fingerprint, sb.fingerprint);
  EXPECT_EQ(sa.peak_cores, 4u);
  EXPECT_EQ(sb.peak_cores, 4u);
}

TEST(ErtService, SharedAdmissionAccountsForReservedCarveouts) {
  // 8 cores, half reserved: the shared pool can only ever grant 4, so a
  // min_cores=5 shared job must be rejected at admission instead of
  // sitting ready forever (its handle would spin drain() for a grant
  // that can never come).
  Service service(ServiceConfig{});
  auto res = service.open_session(
      TenantConfig{.name = "res", .share = 0.5, .reserved = true});
  auto shr = service.open_session(TenantConfig{.name = "shr"});
  ASSERT_TRUE(res.ok() && shr.ok());

  JobSpec wide = make_template("forkjoin");
  wide.min_cores = 5;
  wide.max_cores = 8;
  const JobHandle rejected = shr.value().submit(wide);
  ASSERT_FALSE(rejected.result().ok());
  EXPECT_NE(rejected.result().error().to_string().find("pool has 4"),
            std::string::npos);

  JobSpec fits = make_template("forkjoin");
  fits.min_cores = 4;
  fits.max_cores = 8;
  const JobHandle granted = shr.value().submit(fits);
  ASSERT_TRUE(granted.result().ok());
  EXPECT_EQ(granted.result().value().cores, 4u);
}

TEST(ErtService, ShareCapLiftsWhenPoolWouldOtherwiseIdle) {
  // Two equal tenants, 8 cores, each wanting an exact 5-wide gang: the
  // contention cap (4) can serve neither, and with nothing running there
  // is no completion event to wait for. The work-conserving fallback
  // must grant one gang past the cap and serialize the other behind it
  // instead of livelocking both result() calls.
  Service service(ServiceConfig{});
  auto a = service.open_session(TenantConfig{.name = "a", .share = 0.5});
  auto b = service.open_session(TenantConfig{.name = "b", .share = 0.5});
  ASSERT_TRUE(a.ok() && b.ok());

  JobSpec gang = make_template("forkjoin");
  gang.min_cores = 5;
  gang.max_cores = 5;
  const JobHandle ha = a.value().submit(gang);
  const JobHandle hb = b.value().submit(gang);
  ASSERT_TRUE(ha.result().ok());
  ASSERT_TRUE(hb.result().ok());
  EXPECT_EQ(ha.result().value().cores, 5u);
  EXPECT_EQ(hb.result().value().cores, 5u);
  // Serialized behind the fallback grant, not starved and not parallel.
  EXPECT_GE(hb.result().value().started, ha.result().value().finished);
}

TEST(ErtService, ContentionCapUsesEffectivePoolNotRawCapacity) {
  // 8 cores with half reserved: two equal shared tenants contending must
  // be capped at ceil(0.5 x 4) = 2 cores each — the reserved carve-out
  // must not inflate their caps to ceil(0.5 x 8) = 4.
  Service service(ServiceConfig{});
  auto res = service.open_session(
      TenantConfig{.name = "res", .share = 0.5, .reserved = true});
  auto a = service.open_session(TenantConfig{.name = "a", .share = 0.5});
  auto b = service.open_session(TenantConfig{.name = "b", .share = 0.5});
  ASSERT_TRUE(res.ok() && a.ok() && b.ok());

  JobSpec moldable = make_template("forkjoin");
  moldable.min_cores = 1;
  moldable.max_cores = 8;
  const JobHandle ha = a.value().submit(moldable);
  const JobHandle hb = b.value().submit(moldable);
  ASSERT_TRUE(ha.result().ok());
  ASSERT_TRUE(hb.result().ok());
  EXPECT_EQ(ha.result().value().cores, 2u);
  EXPECT_EQ(hb.result().value().cores, 2u);
}

TEST(ErtService, JobIdsPackTenantAndSequenceWithoutCollision) {
  // 64-bit ids: tenant in the high word, per-tenant sequence in the low
  // word — distinct (tenant, seq) pairs can never alias.
  Service service(ServiceConfig{});
  auto a = service.open_session(TenantConfig{.name = "a", .share = 0.5});
  auto b = service.open_session(TenantConfig{.name = "b", .share = 0.5});
  ASSERT_TRUE(a.ok() && b.ok());
  const JobHandle a0 = a.value().submit(make_template("diamond"));
  const JobHandle a1 = a.value().submit(make_template("diamond"));
  const JobHandle b0 = b.value().submit(make_template("diamond"));
  ASSERT_TRUE(a0.result().ok() && a1.result().ok() && b0.result().ok());
  EXPECT_EQ(a0.result().value().id.value(), 0u);
  EXPECT_EQ(a1.result().value().id.value(), 1u);
  EXPECT_EQ(b0.result().value().id.value(), 1ULL << 32);
}

// -------------------------------------------------------------- isolation

/// The victim's fixed submission stream, identical across scenarios.
std::vector<JobHandle> submit_victim(Session& s) {
  std::vector<JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    JobSpec spec = make_template(j % 2 == 0 ? "pipeline" : "diamond");
    spec.arrival = static_cast<TimePs>(j) * microseconds(40);
    handles.push_back(s.submit(spec));
  }
  return handles;
}

std::uint64_t victim_fingerprint(std::uint64_t neighbor_jobs,
                                 bool neighbor_first) {
  ServiceConfig cfg;
  Service service(cfg);
  auto victim = service.open_session(TenantConfig{
      .name = "victim", .share = 0.25, .reserved = true});
  auto neighbor =
      service.open_session(TenantConfig{.name = "neighbor", .share = 0.75});
  EXPECT_TRUE(victim.ok() && neighbor.ok());

  auto flood = [&] {
    for (std::uint64_t j = 0; j < neighbor_jobs; ++j) {
      JobSpec spec = make_template("forkjoin");
      spec.arrival = static_cast<TimePs>(j) * microseconds(3);
      (void)neighbor.value().submit(std::move(spec));
    }
  };
  if (neighbor_first) flood();
  auto handles = submit_victim(victim.value());
  if (!neighbor_first) flood();
  service.drain();
  return service.tenant_stats(0).fingerprint;
}

TEST(ErtIsolation, ReservedTenantFingerprintInvariantUnderNeighborLoad) {
  const std::uint64_t quiet = victim_fingerprint(0, false);
  EXPECT_EQ(victim_fingerprint(4, false), quiet);
  EXPECT_EQ(victim_fingerprint(64, false), quiet);
  // Submission interleaving is equally invisible.
  EXPECT_EQ(victim_fingerprint(64, true), quiet);
}

TEST(ErtIsolation, IdenticalSpecsOnDisjointSharesFingerprintEqually) {
  // The satellite property: two tenants with identical specs on disjoint
  // (reserved) shares produce identical per-tenant fingerprints no
  // matter what a third tenant does or in which order anyone submitted.
  for (const std::uint64_t third_load : {0ULL, 24ULL}) {
    for (const bool reversed : {false, true}) {
      ServiceConfig cfg;
      Service service(cfg);
      auto a = service.open_session(
          TenantConfig{.name = "a", .share = 0.25, .reserved = true});
      auto b = service.open_session(
          TenantConfig{.name = "b", .share = 0.25, .reserved = true});
      auto c = service.open_session(TenantConfig{.name = "c"});
      ASSERT_TRUE(a.ok() && b.ok() && c.ok());

      for (std::uint64_t j = 0; j < third_load; ++j)
        (void)c.value().submit(make_template("forkjoin"));
      if (reversed) {
        submit_victim(b.value());
        submit_victim(a.value());
      } else {
        submit_victim(a.value());
        submit_victim(b.value());
      }
      service.drain();
      const std::uint64_t fa = service.tenant_stats(0).fingerprint;
      const std::uint64_t fb = service.tenant_stats(1).fingerprint;
      EXPECT_EQ(fa, fb) << "third_load=" << third_load
                        << " reversed=" << reversed;
    }
  }
}

// ------------------------------------------------------------ determinism

// Four equal-share tenants, ten jobs each with staggered virtual arrivals.
struct TenantRig {
  static constexpr std::size_t kTenants = 4;
  static constexpr std::size_t kJobs = 10;

  Service service{ServiceConfig{}};
  std::vector<Session> sessions;
  std::vector<std::vector<JobHandle>> handles;  // per tenant

  TenantRig() : handles(kTenants) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      auto s = service.open_session(TenantConfig{
          .name = strformat("t%zu", t),
          .share = 1.0 / static_cast<double>(kTenants)});
      EXPECT_TRUE(s.ok());
      sessions.push_back(s.value());
    }
  }

  void submit_all(std::size_t t) {
    const auto names = template_names();
    for (std::size_t j = 0; j < kJobs; ++j) {
      JobSpec spec = make_template(names[(t + j) % names.size()]);
      spec.arrival = static_cast<TimePs>(j) * microseconds(15);
      handles[t].push_back(sessions[t].submit(std::move(spec)));
    }
  }

  // One submitter thread per tenant, racing each other (and, with
  // `drainer`, a drain() thread); the service must serialize them all.
  void submit_concurrently(bool drainer) {
    std::vector<std::thread> pool;
    if (drainer) pool.emplace_back([this] { service.drain(); });
    for (std::size_t t = 0; t < kTenants; ++t)
      pool.emplace_back([this, t] { submit_all(t); });
    for (auto& th : pool) th.join();
    service.drain();
  }

  [[nodiscard]] std::vector<std::uint64_t> fingerprints() const {
    std::vector<std::uint64_t> fps;
    for (const TenantStats& s : service.all_tenant_stats())
      fps.push_back(s.fingerprint);
    return fps;
  }
};

// Results are a pure function of the submitted set, so racing submitters
// must reproduce serial submission once everything is in and drained.
TEST(ErtDeterminism, ConcurrentSubmittersMatchSerialSubmission) {
  TenantRig serial;
  for (std::size_t t = 0; t < TenantRig::kTenants; ++t) serial.submit_all(t);
  serial.service.drain();
  for (int repeat = 0; repeat < 3; ++repeat) {
    TenantRig racing;
    racing.submit_concurrently(/*drainer=*/false);
    EXPECT_EQ(racing.fingerprints(), serial.fingerprints());
  }
}

// A drainer racing the submitters may legitimately run a job before a
// later-submitted job with an earlier virtual arrival exists, so the
// schedule is timing-dependent. The accounting is not: every job
// completes exactly once and the per-tenant counts add up. (The TSan job
// runs this for the submit/drain race.)
TEST(ErtDeterminism, ConcurrentDrainerKeepsAccounting) {
  for (int repeat = 0; repeat < 3; ++repeat) {
    TenantRig rig;
    rig.submit_concurrently(/*drainer=*/true);
    for (std::size_t t = 0; t < TenantRig::kTenants; ++t) {
      // Read before any result() call, which would drain what is left.
      const TenantStats st = rig.service.tenant_stats(t);
      EXPECT_EQ(st.completed + st.rejected, st.submitted);
      std::set<std::uint64_t> sequences;
      std::uint64_t ok = 0;
      for (const JobHandle& h : rig.handles[t]) {
        const Result<JobResult>& res = h.result();
        if (!res.ok()) continue;
        ++ok;
        EXPECT_EQ(res.value().tenant, rig.sessions[t].tenant_name());
        sequences.insert(res.value().sequence);
      }
      EXPECT_EQ(sequences.size(), ok) << "a job completed twice";
      EXPECT_EQ(st.submitted, TenantRig::kJobs);
      EXPECT_EQ(st.completed, ok);
      EXPECT_EQ(st.latencies.size(), st.completed);
    }
  }
}

// -------------------------------------------------------------- adapters

TEST(ErtAdapters, TaskgraphJobspecRoundTrip) {
  maps::TaskGraph g = maps::pipeline_taskgraph(
      "radio", 160'000, milliseconds(1), sched::Criticality::kHard);
  const JobSpec spec = jobspec_from_taskgraph(g);
  EXPECT_EQ(spec.name, "radio");
  EXPECT_EQ(spec.qos, QosClass::kRealtime);
  EXPECT_EQ(spec.period, milliseconds(1));
  EXPECT_EQ(spec.deadline, milliseconds(1));  // multiapp convention

  const maps::TaskGraph back = taskgraph_from_jobspec(spec);
  EXPECT_EQ(back.name, g.name);
  EXPECT_EQ(back.annotation.criticality, g.annotation.criticality);
  EXPECT_EQ(back.annotation.period, g.annotation.period);
  EXPECT_EQ(back.tasks().size(), g.tasks().size());
  EXPECT_EQ(back.edges().size(), g.edges().size());
  // Round-tripping again is the identity on the modeled fields.
  const JobSpec again = jobspec_from_taskgraph(back);
  EXPECT_EQ(again.qos, spec.qos);
  EXPECT_EQ(again.deadline, spec.deadline);
}

TEST(ErtAdapters, CicProgramBecomesScaledJobspec) {
  cic::CicProgram prog("app");
  const auto src = prog.add_task("src", 5'000, {}, {"o"});
  const auto dst = prog.add_task("dst", 7'000, {"i"}, {});
  prog.set_period(src, microseconds(20));
  prog.set_deadline(dst, microseconds(50));
  ASSERT_TRUE(prog.connect(src, "o", dst, "i", 128).ok());

  const JobSpec spec = jobspec_from_cic(prog, /*iterations=*/3);
  ASSERT_EQ(spec.graph.tasks().size(), 2u);
  EXPECT_EQ(spec.graph.tasks()[0].ref_cycles, 15'000u);
  EXPECT_EQ(spec.graph.tasks()[1].ref_cycles, 21'000u);
  ASSERT_EQ(spec.graph.edges().size(), 1u);
  EXPECT_EQ(spec.graph.edges()[0].bytes, 128u * 3u);
  // Periodic source + deadline annotation => realtime job.
  EXPECT_EQ(spec.qos, QosClass::kRealtime);
  EXPECT_EQ(spec.deadline, microseconds(50) * 3);
}

// ------------------------------------------------------------ CLI surface

TEST(ErtDriver, ParsesCommonAndToolFlags) {
  const auto opts = parse_ert_args({"--json", "--no-files", "--seed", "9",
                                    "--tenants", "3", "--reserved", "1",
                                    "--out-dir", "/tmp/x", "pipeline"});
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts.value().json_stdout);
  EXPECT_FALSE(opts.value().write_files);
  EXPECT_EQ(opts.value().seed, 9u);
  EXPECT_EQ(opts.value().tenants, 3u);
  EXPECT_EQ(opts.value().reserved, 1u);
  EXPECT_EQ(opts.value().out_dir, "/tmp/x");
  ASSERT_EQ(opts.value().templates.size(), 1u);

  EXPECT_FALSE(parse_ert_args({"--bogus"}).ok());
  EXPECT_FALSE(parse_ert_args({"not_a_template"}).ok());
  EXPECT_FALSE(parse_ert_args({"--reserved", "3", "--tenants", "2"}).ok());
  EXPECT_FALSE(parse_ert_args({"--help"}).ok());
}

TEST(ErtDriver, JsonEnvelopeWrapsLegacyDocDeterministically) {
  ErtOptions opts;
  opts.json_stdout = true;
  opts.write_files = false;
  opts.jobs = 3;
  std::ostringstream a, b;
  EXPECT_EQ(run_ert(opts, a).exit_code, 0);
  EXPECT_EQ(run_ert(opts, b).exit_code, 0);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"schema\": \"rw-tool-1\""), std::string::npos);
  EXPECT_NE(a.str().find("\"tool\": \"rwert\""), std::string::npos);
  EXPECT_NE(a.str().find("\"schema\": \"rw-ert-run-1\""), std::string::npos);
}

TEST(ErtDriver, ListPrintsTemplateRegistry) {
  ErtOptions opts;
  opts.list = true;
  std::ostringstream out;
  EXPECT_EQ(run_ert(opts, out).exit_code, 0);
  for (const std::string& name : template_names())
    EXPECT_NE(out.str().find(name), std::string::npos) << name;
}

// ------------------------------------------- static admission (ISSUE 7)

JobSpec realtime_chain(Cycles task_cycles) {
  JobSpec spec;
  spec.name = "rt_chain";
  const auto a = spec.graph.add_task("a", task_cycles);
  const auto b = spec.graph.add_task("b", task_cycles);
  spec.graph.add_edge(a, b, 256);
  spec.qos = QosClass::kRealtime;
  return spec;
}

TEST(ErtStaticAdmission, InfeasibleRealtimeJobRejectedAtSubmit) {
  ServiceConfig cfg;
  cfg.static_admission = true;
  Service service(cfg);
  auto session = service.open_session(TenantConfig{.name = "rt"});
  ASSERT_TRUE(session.ok());

  // Price the job through the same primitive the service uses.
  JobSpec spec = realtime_chain(4'000);
  const DurationPs bound = static_makespan_bound_ps(spec, cfg);
  ASSERT_GT(bound, 0u);

  // Deadline one tick under the guarantee: provably hopeless, rejected
  // at submit with the typed reason — it never reaches the queue.
  JobSpec doomed = spec;
  doomed.deadline = bound + cfg.arbitration_latency - 1;
  const JobHandle hd = session.value().submit(doomed);
  ASSERT_FALSE(hd.result().ok());
  EXPECT_NE(hd.result().error().to_string().find("static-infeasible"),
            std::string::npos)
      << hd.result().error().to_string();

  // The identical job with an honest deadline is admitted, completes,
  // and — because the bound is conservative — meets that deadline.
  JobSpec honest = spec;
  honest.deadline = bound + cfg.arbitration_latency;
  const JobHandle ho = session.value().submit(honest);
  ASSERT_TRUE(ho.result().ok()) << ho.result().error().to_string();
  EXPECT_TRUE(ho.result().value().deadline_met);
  EXPECT_LE(ho.result().value().finished, honest.deadline);

  const TenantStats stats = service.tenant_stats(0);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ErtStaticAdmission, PrecheckIsOffByDefault) {
  // Same doomed spec, default config: the precheck never fires and the
  // job runs (it may or may not miss its deadline — that is the dynamic
  // outcome the static gate exists to predict, not to forbid).
  ServiceConfig cfg;
  ASSERT_FALSE(cfg.static_admission);
  Service service(cfg);
  auto session = service.open_session(TenantConfig{.name = "rt"});
  ASSERT_TRUE(session.ok());

  JobSpec doomed = realtime_chain(4'000);
  doomed.deadline =
      static_makespan_bound_ps(doomed, cfg) + cfg.arbitration_latency - 1;
  const JobHandle h = session.value().submit(doomed);
  EXPECT_TRUE(h.result().ok()) << h.result().error().to_string();
  EXPECT_EQ(service.tenant_stats(0).rejected, 0u);
}

TEST(ErtStaticAdmission, OnlyRealtimeJobsArePrechecked) {
  // Batch/standard jobs carry no guarantee; the gate ignores them even
  // when enabled and their deadline looks hopeless.
  ServiceConfig cfg;
  cfg.static_admission = true;
  Service service(cfg);
  auto session = service.open_session(TenantConfig{.name = "be"});
  ASSERT_TRUE(session.ok());

  JobSpec batch = realtime_chain(4'000);
  batch.qos = QosClass::kBatch;
  batch.deadline = 1;  // absurd, but batch jobs are best-effort
  EXPECT_TRUE(session.value().submit(batch).result().ok());
}

TEST(CliCommon, EnvelopeSplicesPayloadVerbatim) {
  const std::string doc = cli::envelope("demo", 7, "{\n  \"x\": 1\n}\n");
  EXPECT_NE(doc.find("\"schema\": \"rw-tool-1\""), std::string::npos);
  EXPECT_NE(doc.find("\"tool\": \"demo\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(doc.find("\"x\": 1"), std::string::npos);
}

}  // namespace
}  // namespace rw::ert
