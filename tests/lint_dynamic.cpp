#include "lint_dynamic.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "sim/platform.hpp"
#include "sim/process.hpp"

namespace rw::lint {

std::string key(const Diagnostic& d) {
  return d.kind + ":" + d.location.unit + ":" + d.location.entity;
}

Diagnostic from_race_report(const vpdebug::RaceReport& r, std::string unit,
                            std::string entity) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.subsystem = "vpdebug";
  d.pass = "dynamic";
  d.kind = "race";
  d.location = {std::move(unit), std::move(entity)};
  d.message = r.to_string();
  d.with_evidence("addr", strformat("0x%llx",
                                    static_cast<unsigned long long>(r.addr)))
      .with_evidence("first_core",
                     strformat("%u", r.first_core.value()))
      .with_evidence("second_core",
                     strformat("%u", r.second_core.value()))
      .with_evidence("first_access", r.first_is_write ? "write" : "read")
      .with_evidence("second_access", r.second_is_write ? "write" : "read");
  return d;
}

// --------------------------------------------------------- dynamic twin

namespace {

/// Shared-memory layout of a dynamic run: one 8-byte word per variable
/// at the base (watched by the race detector), channel token flags far
/// above (never watched — the synchronization itself is not a race).
struct RunLayout {
  sim::Addr var_base = 0;
  sim::Addr flag_base = 0;

  [[nodiscard]] sim::Addr var_addr(std::size_t v) const {
    return var_base + 8 * v;
  }
  [[nodiscard]] sim::Addr flag_addr(std::size_t e) const {
    return flag_base + 8 * e;
  }
};

struct RunState {
  const CorpusProgram& p;
  const DynamicRunConfig& cfg;
  sim::Platform& plat;
  RunLayout layout;
  TimePs horizon = 0;
  std::vector<char> done;  // per task
};

sim::Process pe_runner(RunState& st, std::size_t pe,
                       std::vector<std::size_t> order,
                       std::uint64_t seed) {
  auto& core = st.plat.core(pe);
  auto& mem = st.plat.memory();
  auto& sem = st.plat.hwsem();
  auto& kernel = st.plat.kernel();
  const auto cid = sim::CoreId{static_cast<std::uint32_t>(pe)};
  Rng rng(seed);

  const auto& edges = st.p.tasks.edges();
  for (const std::size_t t : order) {
    // Block on every input channel: bounded spin so a wedge is a fact
    // the run can report instead of a hang.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].dst.index() != t) continue;
      while (mem.read_u64(cid, st.layout.flag_addr(e)) == 0) {
        if (kernel.now() >= st.horizon) co_return;  // wedged
        co_await core.compute(400, "wait-token");
      }
    }
    // Channel drain: data that arrived through a synchronizing channel
    // is outside the detector's conflict window by construction.
    co_await sim::delay(kernel, st.cfg.race_window + nanoseconds(100));

    for (std::uint64_t it = 0; it < st.cfg.iterations; ++it) {
      for (std::size_t s = 0; s < st.p.seq.stmts().size(); ++s) {
        if (st.p.stmt_to_task[s] != t) continue;
        const auto& stmt = st.p.seq.stmts()[s];
        const bool locked = [&] {
          for (const auto v : stmt.reads)
            if (st.p.locked_vars.count(st.p.seq.vars()[v.index()].name))
              return true;
          for (const auto v : stmt.writes)
            if (st.p.locked_vars.count(st.p.seq.vars()[v.index()].name))
              return true;
          return false;
        }();
        if (locked) {
          while (!sem.try_acquire(0, cid))
            co_await core.compute(20, "spin-sem");
        }
        for (const auto v : stmt.reads)
          (void)mem.read_u64(cid, st.layout.var_addr(v.index()));
        co_await core.compute(stmt.cycles + rng.next_below(64), stmt.name);
        for (const auto v : stmt.writes)
          mem.write_u64(cid, st.layout.var_addr(v.index()), it + 1);
        if (locked) sem.release(0, cid);
      }
    }

    for (std::size_t e = 0; e < edges.size(); ++e)
      if (edges[e].src.index() == t)
        mem.write_u64(cid, st.layout.flag_addr(e), 1);
    st.done[t] = 1;
  }
}

}  // namespace

DynamicObservations run_dynamic(const CorpusProgram& p,
                                const DynamicRunConfig& cfg) {
  DynamicObservations obs;
  if (!p.runnable()) return obs;

  const Target tgt = p.target();
  const auto orders = tgt.pe_orders();
  const std::size_t pes = orders.size();

  sim::Platform plat(sim::PlatformConfig::homogeneous(std::max<std::size_t>(
      pes, 2)));

  RunState st{p, cfg, plat, RunLayout{}, 0, {}};
  st.layout.var_base = plat.shared_base();
  st.layout.flag_base = plat.shared_base() + 0x8000;
  st.horizon = cfg.horizon;
  st.done.assign(p.tasks.tasks().size(), 0);

  const std::uint64_t nvars = p.seq.vars().size();
  vpdebug::RaceDetector detector(plat, st.layout.var_base, 8 * nvars,
                                 cfg.race_window);

  for (std::size_t pe = 0; pe < orders.size(); ++pe) {
    if (orders[pe].empty()) continue;
    sim::spawn(plat.kernel(),
               pe_runner(st, pe, orders[pe], cfg.seed * 1000 + pe));
  }
  plat.kernel().run();

  obs.races = detector.races();
  obs.accesses_observed = detector.accesses_observed();
  for (const auto& r : obs.races) {
    const std::size_t v =
        static_cast<std::size_t>((r.addr - st.layout.var_base) / 8);
    const std::string name = v < nvars ? p.seq.vars()[v].name : "";
    obs.race_vars.push_back(name);
    if (!name.empty()) obs.raced_vars.insert(name);
  }
  for (std::size_t t = 0; t < st.done.size(); ++t)
    if (!st.done[t]) obs.blocked_tasks.insert(p.tasks.tasks()[t].name);
  return obs;
}

std::vector<Diagnostic> DynamicObservations::to_diagnostics(
    const std::string& unit) const {
  std::vector<Diagnostic> out;
  for (const auto& var : raced_vars) {
    // Representative report: the first race resolving to this variable.
    for (std::size_t i = 0; i < races.size(); ++i) {
      if (i < race_vars.size() && race_vars[i] == var) {
        out.push_back(from_race_report(races[i], unit, var));
        break;
      }
    }
  }
  for (const auto& task : blocked_tasks) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.subsystem = "vpdebug";
    d.pass = "dynamic";
    d.kind = "deadlock";
    d.location = {unit, task};
    d.message = "task '" + task + "' did not complete by the horizon";
    out.push_back(std::move(d));
  }
  sort_diagnostics(out);
  return out;
}

}  // namespace rw::lint
