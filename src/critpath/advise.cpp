#include "critpath/advise.hpp"

#include <algorithm>

#include "maps/mapping.hpp"

namespace rw::critpath {

namespace {

PlacementHints hints_from(const DepGraph& dep, const Retimed& r,
                          const std::vector<std::size_t>& task_to_pe,
                          std::size_t npes) {
  const Attribution attr = attribute(dep, r);
  PlacementHints h;
  h.comm_fraction =
      attr.makespan == 0 ? 0.0
                         : static_cast<double>(attr.transfer_ps) /
                               static_cast<double>(attr.makespan);
  for (const Owner& o : attr.by_core) {
    // by_core names are "core<i>" by construction; recover the index.
    h.preferred_pes.push_back(
        static_cast<std::size_t>(std::stoul(o.name.substr(4))));
  }
  std::vector<bool> used(npes, false);
  for (const std::size_t pe : task_to_pe)
    if (pe < npes && !used[pe]) {
      used[pe] = true;
      ++h.gang_cores;
    }
  return h;
}

}  // namespace

RemapAdvice advise_remap(const maps::TaskGraph& g,
                         const sim::PlatformConfig& cfg,
                         const std::vector<std::size_t>& task_to_pe,
                         int rounds) {
  RemapAdvice adv;
  adv.task_to_pe = task_to_pe;
  const std::size_t npes = cfg.cores.empty() ? 1 : cfg.cores.size();

  const DepGraph dep = trace_mapping(g, cfg, task_to_pe);
  Retimed base = retime(dep, {}, &g);
  adv.ops += base.ops;
  adv.baseline_makespan = base.makespan;
  adv.predicted_makespan = base.makespan;
  if (dep.empty() || npes < 2) {
    adv.resim_makespan = base.makespan;
    adv.hints = hints_from(dep, base, adv.task_to_pe, npes);
    return adv;
  }

  std::vector<Edit> accepted;
  Retimed current = std::move(base);
  for (int round = 0; round < rounds; ++round) {
    // Hottest compute segments on the current critical path are the move
    // candidates; everything else cannot shorten the makespan directly.
    const Attribution attr = attribute(dep, current);
    std::vector<std::uint64_t> hot;
    for (auto it = attr.path.rbegin(); it != attr.path.rend(); ++it) {
      const Segment& s = dep.nodes()[it->node];
      if (s.kind != SegKind::kCompute || s.task == perf::kNoTask) continue;
      if (std::find(hot.begin(), hot.end(), s.task) != hot.end()) continue;
      hot.push_back(s.task);
      if (hot.size() >= 3) break;
    }

    TimePs best = current.makespan;
    Edit best_edit;
    bool found = false;
    for (const std::uint64_t task : hot) {
      for (std::size_t pe = 0; pe < npes; ++pe) {
        std::vector<Edit> trial = accepted;
        trial.push_back(Edit::move_task(task, pe));
        const Retimed t = retime(dep, trial, &g);
        adv.ops += t.ops;
        if (t.makespan < best) {
          best = t.makespan;
          best_edit = trial.back();
          found = true;
        }
      }
    }
    if (!found) break;
    accepted.push_back(best_edit);
    current = retime(dep, accepted, &g);
    adv.ops += current.ops;
  }

  adv.moves = accepted.size();
  adv.predicted_makespan = current.makespan;
  for (const Edit& e : accepted)
    if (e.task < adv.task_to_pe.size()) adv.task_to_pe[e.task] = e.pe % npes;

  // The one paid verification: re-simulate the advised mapping. Reality
  // disagreeing means the advice is withdrawn, not shipped.
  {
    sim::Platform platform(cfg);
    adv.resim_makespan =
        maps::execute_on_platform(g, adv.task_to_pe, platform);
  }
  if (adv.resim_makespan > adv.baseline_makespan) {
    adv.task_to_pe = task_to_pe;
    adv.resim_makespan = adv.baseline_makespan;
    adv.predicted_makespan = adv.baseline_makespan;
    adv.moves = 0;
    adv.reverted = true;
    current = retime(dep, {}, &g);
    adv.ops += current.ops;
  }
  adv.hints = hints_from(dep, current, adv.task_to_pe, npes);
  return adv;
}

}  // namespace rw::critpath
