#include "harness/harness.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <thread>

#include "common/fnv.hpp"
#include "common/json.hpp"
#include "common/thread_budget.hpp"
#include "common/units.hpp"

namespace rw::harness {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

// ----------------------------------------------------------------- Scenario

Scenario& Scenario::add_run(std::string label, RunFn fn) {
  runs_.push_back({std::move(label), std::move(fn)});
  return *this;
}

std::uint64_t Scenario::derive_seed(std::uint64_t base_seed,
                                    std::string_view scenario,
                                    std::string_view label,
                                    std::size_t index) {
  // FNV-1a over the identity, with explicit separators so that
  // ("ab","c") and ("a","bc") hash differently, then splitmix64 to spread
  // low-entropy inputs (consecutive indices) over the whole 64-bit space.
  std::uint64_t h = fnv::kOffset ^ base_seed;
  h = fnv::fold(h, scenario);
  h = fnv::fold(h, "\x1f");
  h = fnv::fold(h, label);
  h = fnv::fold(h, "\x1f");
  h ^= index;
  return splitmix64(splitmix64(h));
}

std::uint64_t Scenario::seed_for(std::size_t index) const {
  return derive_seed(base_seed_, name_, runs_[index].label, index);
}

// ------------------------------------------------------------------ Runner

std::size_t Runner::effective_threads(std::size_t runs) const {
  std::size_t t = cfg_.threads;
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  return std::min(t, std::max<std::size_t>(1, runs));
}

ScenarioResult Runner::run(const Scenario& s) const {
  ScenarioResult out;
  out.scenario = s.name_;
  const std::size_t n = s.runs_.size();
  out.threads_used = effective_threads(n);
  out.runs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.runs[i].label = s.runs_[i].label;
    out.runs[i].index = i;
    out.runs[i].seed = s.seed_for(i);
  }

  const auto scenario_t0 = std::chrono::steady_clock::now();

  // Work-stealing-free task queue: one shared cursor, runs claimed in
  // index order. Each worker writes only its claimed slots, so collection
  // needs no locks and the result layout is independent of scheduling.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      RunRecord& rec = out.runs[i];
      const auto t0 = std::chrono::steady_clock::now();
      try {
        rec.metrics = s.runs_[i].fn(RunContext{i, rec.seed});
      } catch (const std::exception& e) {
        rec.ok = false;
        rec.error = e.what();
        rec.metrics = RunMetrics{};
      } catch (...) {
        rec.ok = false;
        rec.error = "unknown exception";
        rec.metrics = RunMetrics{};
      }
      rec.metrics.wall_ns = elapsed_ns(t0);
    }
  };

  if (out.threads_used <= 1) {
    worker();
  } else {
    // Claim thread-budget permits for the extra workers so nested tiled
    // engines (sim::TiledEngine) see an owned machine and fall back to
    // their bit-identical sequential mode instead of oversubscribing.
    // The sweep's own worker count is unchanged either way — results are
    // byte-identical across thread counts by the harness contract.
    const auto extra = static_cast<std::uint32_t>(out.threads_used - 1);
    const std::uint32_t permits = common::thread_budget_acquire_upto(extra);
    {
      std::vector<std::jthread> pool;
      pool.reserve(out.threads_used);
      for (std::size_t t = 0; t < out.threads_used; ++t)
        pool.emplace_back(worker);
    }  // jthread joins on scope exit
    common::thread_budget_release(permits);
  }

  out.wall_ns = elapsed_ns(scenario_t0);
  return out;
}

// ----------------------------------------------------------- ScenarioResult

const RunRecord* ScenarioResult::find(std::string_view label) const {
  for (const auto& r : runs)
    if (r.label == label) return &r;
  return nullptr;
}

// -------------------------------------------------------------------- JSON

std::string to_json(const std::vector<ScenarioResult>& results) {
  json::Writer w;
  w.begin_object();
  w.key("generator").value("roadworks rw::harness");
  w.key("scenarios").begin_array();
  for (const auto& sr : results) {
    w.begin_object();
    w.key("name").value(sr.scenario);
    w.key("threads").value(static_cast<std::uint64_t>(sr.threads_used));
    w.key("wall_ns").value(sr.wall_ns);
    w.key("runs").begin_array();
    for (const auto& r : sr.runs) {
      w.begin_object();
      w.key("label").value(r.label);
      w.key("index").value(static_cast<std::uint64_t>(r.index));
      w.key("seed").value(r.seed);
      w.key("ok").value(r.ok);
      if (!r.ok) w.key("error").value(r.error);
      w.key("metrics").begin_object();
      w.key("makespan_ps").value(r.metrics.makespan);
      w.key("mean_core_utilization").value(r.metrics.mean_core_utilization);
      w.key("deadline_misses").value(r.metrics.deadline_misses);
      w.key("wall_ns").value(r.metrics.wall_ns);
      for (const auto& [k, v] : r.metrics.extra) w.key(k).value(v);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

Status write_json(const std::string& path,
                  const std::vector<ScenarioResult>& results) {
  std::ofstream out(path);
  if (!out) return make_error("cannot write '" + path + "'");
  out << to_json(results) << '\n';
  return out.good() ? Status::ok_status()
                    : Status(make_error("write failed for '" + path + "'"));
}

}  // namespace rw::harness
