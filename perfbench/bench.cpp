// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--tiny] [--pins FILE] [--spans-out FILE]
//             [--commit C] [--source-digest D] [--emit-pins]
//
// Builds the corpus of workload W from seed N, then runs whole corpus
// passes in a closed loop, one unit at a time, for S seconds, setting up
// again now and then between passes to time set-up. Every unit's outputs are
// checked against its pin (default and held-out seeds) or its first run,
// and its exact work counters against its first run. With --trace 1 half
// of the time is a plain run and half a span run; the per-layer metrics
// come from the span run. The last stdout line is the result object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Set-ups repeated between the passes of the plain run, spread evenly
// over it, so they meet the same host phases as the ops.
constexpr double kSetupSamples = 40.0;
// p90 must leave at least ten samples beyond it.
constexpr std::uint64_t kMinOps = 100;
// Rounds of at least this many ops, and the share of them (fastest
// first) the end-to-end figures are taken over; see summarize().
constexpr std::uint64_t kRoundOps = 9;
constexpr double kFastShare = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool emit_pins = false;
  std::string pins = "perfbench/pins.json";
  std::string spans_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    try {
      if (k == "--tiny") {
        a.tiny = true;
      } else if (k == "--emit-pins") {
        a.emit_pins = true;
      } else if (!(v = next())) {
        std::cerr << "missing value for " << k << "\n";
        return std::nullopt;
      } else if (k == "--workload") {
        a.workload = *v;
      } else if (k == "--seed") {
        a.seed = std::stoull(*v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(*v);
      } else if (k == "--trace") {
        a.trace = *v == "1";
      } else if (k == "--pins") {
        a.pins = *v;
      } else if (k == "--spans-out") {
        a.spans_out = *v;
      } else if (k == "--commit") {
        a.commit = *v;
      } else if (k == "--source-digest") {
        a.source_digest = *v;
      } else {
        std::cerr << "unknown option " << k << "\n";
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << k << ": " << *v << "\n";
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) {
    std::cerr << "--workload and a positive --seconds are required\n";
    return std::nullopt;
  }
  return a;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// CPUs this process may run on (what `nproc` prints).
std::uint64_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::uint64_t>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-entry references: the pinned digest, or the entry's first run;
/// and the entry's first exact counters.
class Checker {
 public:
  Checker(std::size_t n, const rw::json::Value* pins, const Workload& wl)
      : digest_(n), counts_(n) {
    if (pins == nullptr) return;
    for (std::size_t i = 0; i < n; ++i) {
      const rw::json::Value* p = pins->get(wl.entry_name(i));
      digest_[i] = p != nullptr && p->is_string()
                       ? std::stoull(p->string(), nullptr, 16)
                       : 0;  // an unpinned entry of a pinned seed fails
    }
  }

  /// Whether the unit's outputs match; notes any drift in its counters.
  bool check(std::size_t i, const std::string& name, const UnitResult& r) {
    if (!counts_[i]) {
      counts_[i] = r.counts;
    } else if (*counts_[i] != r.counts) {
      counts_stable_ = false;
      note(name + ": work counters differ between runs of the same input");
    }
    if (!digest_[i]) digest_[i] = r.digest;
    if (*digest_[i] == r.digest) return true;
    note(name + ": outputs " + hex(r.digest) + " differ from pin " +
         hex(*digest_[i]));
    return false;
  }

  void note(const std::string& problem) {
    if (problems_.size() < 8) problems_.push_back(problem);
  }

  /// Counters of one whole corpus pass.
  [[nodiscard]] Counts pass_counts() const {
    Counts out;
    for (const auto& c : counts_)
      if (c)
        for (const auto& [k, v] : *c) out[k] += v;
    return out;
  }

  [[nodiscard]] bool counts_stable() const { return counts_stable_; }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

 private:
  std::vector<std::optional<std::uint64_t>> digest_;
  std::vector<std::optional<Counts>> counts_;
  bool counts_stable_ = true;
  std::vector<std::string> problems_;
};

/// One whole corpus pass of the closed loop.
struct Pass {
  double wall_s = 0.0;  // host time, comparison runs and probes excluded
  std::uint64_t ops = 0;
  std::vector<double> op_ms;
  double sim_us = 0.0;
  double sim_host_s = 0.0;
};

struct RunStats {
  std::vector<Pass> passes;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> entry_ms;  // per corpus entry
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> sums;
  Counts totals;  // summed over every unit run

  [[nodiscard]] std::vector<double> op_ms() const {
    std::vector<double> out;
    for (const Pass& p : passes)
      out.insert(out.end(), p.op_ms.begin(), p.op_ms.end());
    return out;
  }
};

/// Whole corpus passes for `seconds` (and at least kMinOps ops). With a
/// `probe` map, runs each entry's layer probe once after its first run.
/// With a `setup` function, times it between passes, kSetupSamples times
/// over the run.
RunStats run_loop(Workload& wl, Checker& chk, Spans& spans, double seconds,
                  Counts* probe, const std::function<double()>& setup = {}) {
  RunStats st;
  st.entry_ms.resize(wl.size());
  const std::int64_t start = now_ns();
  const double cap = 3.0 * seconds + 5.0;
  double next_setup = 0.0;
  for (;;) {
    const double el = static_cast<double>(now_ns() - start) * 1e-9;
    if (!st.passes.empty() &&
        ((el >= seconds && st.attempted >= kMinOps) || el >= cap))
      break;
    if (setup && el >= next_setup) {
      st.setup_s.push_back(setup());
      next_setup = el + seconds / kSetupSamples;
    }
    Pass pass;
    const std::int64_t pass_t0 = now_ns();
    double excluded_ms = 0.0;
    for (std::size_t i = 0; i < wl.size(); ++i) {
      ++spans.op;
      const std::int64_t t0 = now_ns();
      UnitResult r;
      try {
        r = wl.run(i, spans);
      } catch (const std::exception& e) {
        ++st.attempted;
        ++st.failed;
        chk.note(wl.entry_name(i) + ": threw: " + e.what());
        continue;
      }
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6 -
                        r.excluded_ms;
      excluded_ms += r.excluded_ms;
      st.attempted += r.ops;
      pass.ops += r.ops;
      if (!chk.check(i, wl.entry_name(i), r)) {
        st.failed += r.ops;
      } else {
        std::uint64_t bad = r.failed;
        if (!r.problem.empty()) {
          chk.note(r.problem);
          bad = std::max<std::uint64_t>(bad, 1);
        }
        st.failed += std::min(bad, r.ops);
      }
      pass.sim_us += r.sim_us;
      if (wl.self_timed()) {
        pass.op_ms.insert(pass.op_ms.end(), r.op_ms.begin(), r.op_ms.end());
        pass.sim_host_s += r.sim_host_s;
      } else {
        st.entry_ms[i].push_back(ms);
        pass.op_ms.push_back(ms);
        pass.sim_host_s += ms * 1e-3;
      }
      for (auto& [k, v] : r.samples)
        st.samples[k].insert(st.samples[k].end(), v.begin(), v.end());
      for (const auto& [k, v] : r.sums) st.sums[k] += v;
      for (const auto& [k, v] : r.counts) st.totals[k] += v;
      if (probe != nullptr && st.passes.empty()) {
        const std::int64_t p0 = now_ns();
        wl.probe(i, spans, *probe);
        excluded_ms += static_cast<double>(now_ns() - p0) * 1e-6;
      }
    }
    pass.wall_s = static_cast<double>(now_ns() - pass_t0) * 1e-9 -
                  excluded_ms * 1e-3;
    st.passes.push_back(std::move(pass));
  }
  return st;
}

/// End-to-end figures over the fastest share of rounds. A round is a run
/// of consecutive passes holding at least kRoundOps ops. Other tenants of
/// a shared host slow it for seconds at a time, by a third or more; the
/// fastest rounds are the ones no such phase touched, so their figures
/// repeat from run to run where those of the whole run do not.
struct Summary {
  double ops_per_s = 0.0;
  double op_ms_p50 = 0.0;
  double op_ms_p90 = 0.0;
  double sim_us_per_s = 0.0;
  std::size_t rounds = 0;
  std::size_t rounds_used = 0;
  std::size_t ops_used = 0;
};

Summary summarize(const RunStats& st) {
  std::vector<Pass> rounds;
  for (const Pass& p : st.passes) {
    if (rounds.empty() || rounds.back().ops >= kRoundOps) rounds.emplace_back();
    Pass& r = rounds.back();
    r.wall_s += p.wall_s;
    r.ops += p.ops;
    r.op_ms.insert(r.op_ms.end(), p.op_ms.begin(), p.op_ms.end());
    r.sim_us += p.sim_us;
    r.sim_host_s += p.sim_host_s;
  }
  std::sort(rounds.begin(), rounds.end(), [](const Pass& a, const Pass& b) {
    return a.wall_s / static_cast<double>(std::max<std::uint64_t>(a.ops, 1)) <
           b.wall_s / static_cast<double>(std::max<std::uint64_t>(b.ops, 1));
  });
  Summary out;
  out.rounds = rounds.size();
  const auto want = static_cast<std::size_t>(
      std::ceil(kFastShare * static_cast<double>(rounds.size())));
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double sim_us = 0.0;
  double sim_host_s = 0.0;
  std::uint64_t ops = 0;
  for (const Pass& r : rounds) {
    if (out.rounds_used >= want && op_ms.size() >= kMinOps) break;
    ++out.rounds_used;
    wall_s += r.wall_s;
    ops += r.ops;
    sim_us += r.sim_us;
    sim_host_s += r.sim_host_s;
    op_ms.insert(op_ms.end(), r.op_ms.begin(), r.op_ms.end());
  }
  out.ops_used = op_ms.size();
  out.ops_per_s = wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0;
  out.op_ms_p50 = quantile(op_ms, 0.5);
  out.op_ms_p90 = quantile(op_ms, 0.9);
  out.sim_us_per_s = sim_host_s > 0.0 ? sim_us / sim_host_s : 0.0;
  return out;
}

/// Median of the fastest kFastShare of `v`.
double fastest_share_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::size_t>(
      std::ceil(kFastShare * static_cast<double>(v.size())));
  v.resize(std::max<std::size_t>(n, 1));
  return quantile(v, 0.5);
}

/// Metric object: {"name": {"value": v, "unit": u}, ...}.
class Metrics {
 public:
  Metrics() { w_.begin_object(); }

  void add(const std::string& name, double value, const char* unit) {
    w_.key(name).begin_object();
    w_.key("value").value(value);
    w_.key("unit").value(unit);
    w_.end_object();
  }

  std::string finish() {
    w_.end_object();
    return w_.str();
  }

 private:
  rw::json::Writer w_{/*pretty=*/false};
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_layer_metrics(Metrics& m, const Workload& wl, const RunStats& plain,
                       const RunStats& traced, const Spans& spans,
                       const Counts& pass) {
  const auto totals = spans.totals();
  const auto per_call = [&](const char* span) {
    const auto it = totals.find(span);
    return it == totals.end() ? 0.0
                              : it->second.self_s /
                                    static_cast<double>(it->second.calls);
  };
  const auto count = [&](const char* name) {
    const auto it = pass.find(name);
    return it == pass.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto median_of = [&](const std::string& key) {
    const auto it = traced.samples.find(key);
    return it == traced.samples.end() ? 0.0 : quantile(it->second, 0.5);
  };

  for (const char* layer :
       {"sim.build", "sim.spawn", "sim.run", "perf.attach", "perf.report",
        "perf.traceview", "perf.export", "critpath.build", "critpath.retime",
        "critpath.predict"})
    m.add(std::string(layer) + "_s", per_call(layer), "s");

  // Events behind the sim.run spans: every span-run unit, plus the probe.
  const auto run_it = totals.find("sim.run");
  const double run_s = run_it == totals.end() ? 0.0 : run_it->second.self_s;
  const auto ev_it = traced.totals.find("sim.events");
  const double span_events =
      (ev_it == traced.totals.end() ? 0.0
                                    : static_cast<double>(ev_it->second)) +
      (wl.self_timed() ? count("sim.events") : 0.0);
  m.add("sim.ns_per_event", ratio(run_s * 1e9, span_events), "ns");

  for (const char* c :
       {"sim.events", "sim.icn_transfers", "sim.tiles.epochs",
        "sim.tiles.cross_posts", "sim.tiles.used_parallel", "trace.records",
        "vpdebug.recorder_events", "pmu.mem_accesses", "pmu.stall_cycles",
        "critpath.nodes", "critpath.ops", "fuzz.cases", "fuzz.sub_runs",
        "fuzz.coverage_cells", "fault.faults_injected", "fault.recoveries"})
    m.add(c, count(c), "count");
  m.add("sim.makespan_ps", count("sim.makespan_ps"), "ps");
  m.add("perf.export_bytes", count("perf.export_bytes"), "B");
  const auto pool = traced.samples.find("harness.pool_threads");
  m.add("harness.pool_threads",
        pool == traced.samples.end()
            ? 0.0
            : *std::max_element(pool->second.begin(), pool->second.end()),
        "count");
  m.add("sim.tiles.events_per_epoch",
        ratio(count("sim.events"), count("sim.tiles.epochs")), "count");

  for (const char* fam : {"perf", "fault", "maps", "ert"})
    m.add(std::string("fuzz.case_ms.") + fam,
          median_of(std::string("fuzz.case_ms.") + fam), "ms");
  const auto sum = [&](const char* k) {
    const auto it = traced.sums.find(k);
    return it == traced.sums.end() ? 0.0 : it->second;
  };
  m.add("harness.busy_frac",
        ratio(sum("harness.busy_ns"), sum("harness.capacity_ns")), "fraction");

  m.add("error_rate",
        ratio(static_cast<double>(plain.failed + traced.failed),
              static_cast<double>(plain.attempted + traced.attempted)),
        "fraction");
  m.add("span.overhead_frac",
        ratio(summarize(plain).ops_per_s, summarize(traced).ops_per_s) - 1.0,
        "fraction");

  // ROADMAP readouts: traced / untraced run time per demo workload
  // (target <= 1.25), and untiled / 4-tile op time (exit rule >= 1.5).
  for (const char* demo :
       {"pipeline", "forkjoin", "shared_hammer", "tiled_pipeline"})
    m.add(std::string("readout.obs_ratio.") + demo,
          ratio(median_of(std::string("readout.traced_run_ms.") + demo),
                median_of(std::string("readout.untraced_run_ms.") + demo)),
          "ratio");
  m.add("readout.tiled_speedup",
        ratio(median_of("readout.untiled_ms"), quantile(traced.op_ms(), 0.5)),
        "ratio");
}

std::string counts_json(const Counts& c) {
  rw::json::Writer w(/*pretty=*/false);
  w.begin_object();
  for (const auto& [k, v] : c) w.key(k).value(v);
  w.end_object();
  return w.str();
}

int run(const Args& args) {
  // Pins for this workload, size and seed (absent for unpinned seeds).
  std::ifstream pf(args.pins);
  if (!pf) {
    std::cerr << "cannot read pins file " << args.pins << "\n";
    return 2;
  }
  std::stringstream pbuf;
  pbuf << pf.rdbuf();
  auto pins_doc = rw::json::parse(pbuf.str());
  if (!pins_doc.ok()) {
    std::cerr << "bad pins file: " << pins_doc.error().to_string() << "\n";
    return 2;
  }
  const std::string pin_key = args.workload + "/" +
                              (args.tiny ? "tiny" : "full") + "/" +
                              std::to_string(args.seed);
  const rw::json::Value* pins = pins_doc.value().get(pin_key);

  // Set-up: corpus construction plus one untimed warm-up op.
  const auto set_up = [&](std::unique_ptr<Workload>& out) {
    const std::int64_t t0 = now_ns();
    out = Workload::make(args.workload, args.seed, args.tiny);
    if (out) out->warm_up();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  };
  std::unique_ptr<Workload> wl;
  const double first_setup_s = set_up(wl);
  if (!wl) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }

  Checker chk(wl->size(), args.emit_pins ? nullptr : pins, *wl);
  Spans spans;

  if (args.emit_pins) {
    rw::json::Writer w(/*pretty=*/false);
    w.begin_object();
    for (std::size_t i = 0; i < wl->size(); ++i)
      w.key(wl->entry_name(i)).value(hex(wl->run(i, spans).digest));
    w.end_object();
    std::cout << w.str() << "\n";
    return 0;
  }

#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  {
    rw::json::Writer w(/*pretty=*/false);
    w.begin_object().key("host").begin_object();
    w.key("nproc").value(usable_cpus());
    w.key("hw_threads").value(static_cast<std::uint64_t>(
        std::thread::hardware_concurrency()));
#if defined(__clang__)
    w.key("compiler").value("clang " __clang_version__);
#else
    w.key("compiler").value("gcc " __VERSION__);
#endif
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("optimized").value(optimized);
    w.key("comparable").value(optimized);
    w.key("git_commit").value(args.commit);
    w.key("source_digest").value(args.source_digest);
    w.key("workload").value(args.workload);
    w.key("seed").value(args.seed);
    w.key("pinned").value(pins != nullptr);
    w.end_object().end_object();
    std::cout << w.str() << "\n";
  }
  if (!optimized)
    std::cerr << "WARNING: unoptimised build; these figures are not "
                 "comparable\n";

  const double plain_s = args.trace ? args.seconds / 2.0 : args.seconds;
  // Later set-ups build a corpus of their own; the loop keeps the first.
  const auto set_up_again = [&] {
    std::unique_ptr<Workload> other;
    return set_up(other);
  };
  RunStats plain =
      run_loop(*wl, chk, spans, plain_s, nullptr,
               args.trace ? std::function<double()>{} : set_up_again);
  plain.setup_s.push_back(first_setup_s);
  RunStats traced;
  Counts probe;
  if (args.trace) {
    spans.enabled = true;
    traced = run_loop(*wl, chk, spans, args.seconds - plain_s, &probe);
    spans.enabled = false;
    if (!args.spans_out.empty() && !spans.write_csv(args.spans_out))
      std::cerr << "cannot write spans to " << args.spans_out << "\n";
  }

  Counts pass = chk.pass_counts();
  for (const auto& [k, v] : probe) pass[k] += v;
  const Summary sum = summarize(plain);
  std::cout << "{\"ops\":" << plain.attempted
            << ",\"passes\":" << plain.passes.size()
            << ",\"rounds\":" << sum.rounds
            << ",\"rounds_used\":" << sum.rounds_used
            << ",\"ops_used\":" << sum.ops_used
            << ",\"span_ops\":" << traced.attempted
            << ",\"spans\":" << spans.size() << "}\n";
  std::cout << "{\"counts\":" << counts_json(pass) << "}\n";
  for (std::size_t i = 0; i < plain.entry_ms.size(); ++i)
    std::cerr << "entry " << wl->entry_name(i) << ": op ms p10 "
              << quantile(plain.entry_ms[i], 0.1) << " p50 "
              << quantile(plain.entry_ms[i], 0.5) << " p90 "
              << quantile(plain.entry_ms[i], 0.9) << "\n";
  for (const std::string& p : chk.problems())
    std::cerr << "problem: " << p << "\n";

  Metrics m;
  if (args.trace) {
    add_layer_metrics(m, *wl, plain, traced, spans, pass);
  } else {
    m.add("setup_s", fastest_share_median(plain.setup_s), "s");
    m.add("ops_per_s", sum.ops_per_s, "1/s");
    m.add("op_ms_p50", sum.op_ms_p50, "ms");
    m.add("op_ms_p90", sum.op_ms_p90, "ms");
    m.add("sim_us_per_s", sum.sim_us_per_s, "us/s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  }

  const std::uint64_t attempted = plain.attempted + traced.attempted;
  const std::uint64_t failed = plain.failed + traced.failed;
  rw::json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.key("correct").value(failed == 0 && chk.counts_stable());
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").raw(m.finish());
  w.end_object();
  std::cout << w.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) return 2;
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
