// Microbenchmarks (google-benchmark): the hot paths of the toolkit.
// These are engineering benchmarks, not paper experiments — they guard
// the simulator's own performance so the experiment sweeps stay fast.
#include <benchmark/benchmark.h>

#include <chrono>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "dataflow/executor.hpp"
#include "fault/scenario.hpp"
#include "maps/mapping.hpp"
#include "maps/partition.hpp"
#include "maps/workloads.hpp"
#include "perf/export.hpp"
#include "perf/session.hpp"
#include "perf/workload.hpp"
#include "recoder/interp.hpp"
#include "recoder/parser.hpp"
#include "sched/analysis.hpp"
#include "sched/uniproc.hpp"
#include "sim/channel.hpp"
#include "sim/kernel.hpp"
#include "sim/platform.hpp"
#include "sim/process.hpp"

namespace {

using namespace rw;

// The self-rescheduling tick goes through the kernel-owned callable type
// (a 24-byte functor, inline in EventFn) rather than a self-capturing
// std::function, so the benchmark measures the event fast path and not an
// extra type-erasure indirection per event.
struct KernelTick {
  sim::Kernel* k;
  std::uint64_t* count;
  void operator()() const {
    if (++*count < 10000) k->schedule_in(10, KernelTick{k, count});
  }
};
static_assert(sim::EventFn::stores_inline<KernelTick>);

// Backlog events parked beyond the active window (daemons at far-future
// times never execute) set the steady queue depth the hot loop runs at:
// the binary heap pays O(log depth) per operation, the calendar wheel
// does not.
void fill_backlog(sim::Kernel& k, std::int64_t depth) {
  for (std::int64_t i = 0; i < depth; ++i)
    k.schedule_daemon_at(milliseconds(1) + static_cast<TimePs>(i) * 100,
                         [] {});
}

sim::QueuePolicy bench_policy(std::int64_t arg) {
  return arg != 0 ? sim::QueuePolicy::kCalendar
                  : sim::QueuePolicy::kBinaryHeap;
}

void BM_KernelEventThroughput(benchmark::State& state) {
  const sim::QueuePolicy policy = bench_policy(state.range(0));
  const std::int64_t pending = state.range(1);
  for (auto _ : state) {
    sim::Kernel k(policy);
    fill_backlog(k, pending);
    std::uint64_t count = 0;
    k.schedule_at(0, KernelTick{&k, &count});
    k.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_KernelEventThroughput)
    ->ArgNames({"calendar", "pending"})
    ->ArgsProduct({{0, 1}, {1, 100, 10000}});

sim::Process bench_producer(sim::Kernel& k, sim::Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) co_await ch.send(i);
  (void)k;
}
sim::Process bench_consumer(sim::Channel<int>& ch, int n, int& sink) {
  for (int i = 0; i < n; ++i) sink += co_await ch.recv();
}

void BM_ChannelPingPong(benchmark::State& state) {
  const sim::QueuePolicy policy = bench_policy(state.range(0));
  const std::int64_t pending = state.range(1);
  for (auto _ : state) {
    sim::Kernel k(policy);
    fill_backlog(k, pending);
    sim::Channel<int> ch(k, 4);
    int sink = 0;
    sim::spawn(k, bench_producer(k, ch, 5000));
    sim::spawn(k, bench_consumer(ch, 5000, sink));
    k.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_ChannelPingPong)
    ->ArgNames({"calendar", "pending"})
    ->ArgsProduct({{0, 1}, {0, 10000}});

void BM_ResponseTimeAnalysis(benchmark::State& state) {
  sched::TaskSet ts;
  ts.frequency = mhz(200);
  for (int i = 0; i < 12; ++i)
    ts.add(strformat("t%d", i), 50'000 + i * 10'000,
           milliseconds(2 + i));
  sched::assign_rm_priorities(ts);
  for (auto _ : state) {
    auto r = sched::response_time_analysis(ts, 200);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ResponseTimeAnalysis);

void BM_UniprocSimulation(benchmark::State& state) {
  sched::TaskSet ts;
  ts.frequency = mhz(100);
  ts.add("a", 100'000, milliseconds(4));
  ts.add("b", 200'000, milliseconds(6));
  ts.add("c", 300'000, milliseconds(12));
  for (auto _ : state) {
    auto r = sched::simulate_uniproc(ts, milliseconds(240),
                                     {sched::Policy::kEdf});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_UniprocSimulation);

void BM_DataflowExecution(benchmark::State& state) {
  dataflow::Graph g;
  const auto a = g.add_actor("src", 500, 0);
  const auto b = g.add_actor("f1", 10'000, 1);
  const auto c = g.add_actor("f2", 10'000, 2);
  const auto d = g.add_actor("snk", 500, 3);
  g.connect(a, b, 1, 1);
  g.connect(b, c, 1, 1);
  g.connect(c, d, 1, 1);
  dataflow::ExecConfig cfg;
  cfg.num_cores = 4;
  cfg.source_period = microseconds(50);
  cfg.iterations = 200;
  for (auto _ : state) {
    auto r = dataflow::run_data_driven(g, cfg);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_DataflowExecution);

void BM_JpegPartition(benchmark::State& state) {
  const auto prog = maps::jpeg_encoder_program(16);
  for (auto _ : state) {
    auto r = maps::partition_program(prog, {6, 1.0});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_JpegPartition);

void BM_HeftMapping(benchmark::State& state) {
  const auto part =
      maps::partition_program(maps::jpeg_encoder_program(16), {8, 1.0});
  const std::vector<maps::PeDesc> pes(
      8, maps::PeDesc{sim::PeClass::kRisc, mhz(400)});
  const auto comm = maps::simple_comm_cost(nanoseconds(200), 0.004);
  for (auto _ : state) {
    auto r = maps::heft_map(part.graph, pes, comm);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HeftMapping);

void BM_MiniCParse(benchmark::State& state) {
  std::string src;
  for (int i = 0; i < 50; ++i)
    src += "int f" + std::to_string(i) +
           "(int x) { int s = 0; for (int i = 0; i < 10; i = i + 1) "
           "{ s = s + x * i; } return s; }\n";
  for (auto _ : state) {
    auto r = recoder::parse_program(src);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_MiniCParse);

void BM_MiniCInterpret(benchmark::State& state) {
  auto p = recoder::parse_program(R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main() { return fib(15); })");
  for (auto _ : state) {
    auto r = recoder::interpret(p.value());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MiniCInterpret);

// One fixed traced forkjoin run (4 cores on the bus, seed 1, scale 256:
// 5120 compute blocks) whose trace and report the export benches re-emit.
struct TracedRun {
  std::vector<sim::TraceEvent> events;
  perf::PerfReport report;
};

const TracedRun& traced_forkjoin() {
  static const TracedRun run = [] {
    auto cfg = sim::PlatformConfig::homogeneous(4, mhz(400));
    cfg.trace_enabled = true;
    sim::Platform plat(std::move(cfg));
    perf::PerfConfig pc;
    pc.epoch_width = microseconds(25);
    perf::PerfSession session(plat, pc);
    perf::spawn_workload("forkjoin", plat, /*seed=*/1, /*scale=*/256);
    plat.kernel().run();
    return TracedRun{plat.tracer().events(), session.report()};
  }();
  return run;
}

void BM_ExportChromeTrace(benchmark::State& state) {
  const TracedRun& run = traced_forkjoin();
  for (auto _ : state) {
    const std::string doc = perf::to_chrome_trace(run.events);
    benchmark::DoNotOptimize(doc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.events.size()));
}
BENCHMARK(BM_ExportChromeTrace)->Unit(benchmark::kMicrosecond);

void BM_ExportCsv(benchmark::State& state) {
  const TracedRun& run = traced_forkjoin();
  for (auto _ : state) {
    const std::string doc =
        perf::to_csv(run.report.epochs, run.report.num_cores);
    benchmark::DoNotOptimize(doc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.report.epochs.size()));
}
BENCHMARK(BM_ExportCsv)->Unit(benchmark::kMicrosecond);

// The chrome exporter's number shape: picosecond times in microseconds.
void BM_JsonWriterDouble(benchmark::State& state) {
  std::vector<double> values;
  for (const auto& ev : traced_forkjoin().events)
    values.push_back(static_cast<double>(ev.time) * 1e-6);
  for (auto _ : state) {
    json::Writer w(/*pretty=*/false);
    w.begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
    benchmark::DoNotOptimize(w.str().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_JsonWriterDouble)->Unit(benchmark::kMicrosecond);

// Model-size sweep: the untraced run() of a perf demo (seed 1, scale 64)
// on a 4-, 16- and 64-core platform, on the bus and on a square mesh. The
// host cost per simulated event should stay flat as the model grows;
// `ns_per_event` shows it. Only run() is timed, not build or spawn. The
// queue counters give the events each path served: the delta lane, the
// spill heap directly (a shallow backlog) and the wheel (a deep one).
void BM_UntracedRunModelSize(benchmark::State& state) {
  static const char* const kDemos[] = {"pipeline", "forkjoin",
                                       "shared_hammer"};
  const char* demo = kDemos[state.range(0)];
  const auto cores = static_cast<std::size_t>(state.range(1));
  const bool mesh = state.range(2) != 0;
  std::uint64_t events = 0;
  sim::Kernel::QueueCounters queue;
  for (auto _ : state) {
    auto cfg = sim::PlatformConfig::homogeneous(cores, mhz(400));
    if (mesh) cfg.use_square_mesh();
    sim::Platform plat(std::move(cfg));
    perf::spawn_workload(demo, plat, /*seed=*/1, /*scale=*/64);
    const auto t0 = std::chrono::steady_clock::now();
    plat.kernel().run();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    events = plat.kernel().events_executed();
    queue = plat.kernel().queue_counters();
  }
  state.SetLabel(strformat("%s/%s", demo, mesh ? "mesh" : "bus"));
  state.counters["events"] = static_cast<double>(events);
  state.counters["lane_pops"] = static_cast<double>(queue.lane_pops);
  state.counters["spill_pops"] = static_cast<double>(queue.spill_pops);
  state.counters["wheel_pops"] = static_cast<double>(queue.wheel_pops);
  state.counters["rebases"] = static_cast<double>(queue.rebases);
  state.counters["ns_per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_UntracedRunModelSize)
    ->ArgsProduct({{0, 1, 2}, {4, 16, 64}, {0, 1}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Platform build and destroy, no spawn and no run, on the bus at 4, 16 and
// 64 cores: the per-run set-up a fuzz campaign pays for every sub-run.
// Four threads building at once show the contention of that set-up on a
// harness pool.
void BM_PlatformBuild(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Platform plat(sim::PlatformConfig::homogeneous(cores, mhz(400)));
    benchmark::DoNotOptimize(&plat);
  }
}
BENCHMARK(BM_PlatformBuild)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Run-length sweep: one fault-free E14 pipeline run (run_fault_plan, the
// fuzz oracle's fault probe) on the default 4-core bus at 48, 192, 768 and
// 3072 items, without recovery and under watchdog restart. The host cost
// per item should stay flat as the run grows; `time_per_item` shows it.
void BM_FaultScenarioRunLength(benchmark::State& state) {
  fault::ScenarioConfig cfg;
  cfg.items = static_cast<std::uint64_t>(state.range(0));
  cfg.policy = state.range(1) != 0 ? fault::RecoveryPolicy::kWatchdogRestart
                                   : fault::RecoveryPolicy::kNone;
  const fault::FaultPlan no_faults;
  for (auto _ : state) {
    const fault::ScenarioOutcome out = fault::run_fault_plan(cfg, no_faults);
    benchmark::DoNotOptimize(out.trace_fingerprint);
  }
  state.SetLabel(fault::recovery_policy_name(cfg.policy));
  state.counters["time_per_item"] = benchmark::Counter(
      static_cast<double>(cfg.items),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_FaultScenarioRunLength)
    ->ArgsProduct({{48, 192, 768, 3072}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
