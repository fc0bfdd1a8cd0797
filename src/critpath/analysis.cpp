#include "critpath/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strings.hpp"
#include "sim/interconnect.hpp"

namespace rw::critpath {

// ----------------------------------------------------------------- edits

Edit Edit::faster_core(std::size_t pe, double factor) {
  Edit e;
  e.kind = Kind::kFasterCore;
  e.pe = pe;
  e.factor = factor;
  return e;
}

Edit Edit::faster_link(double factor) {
  Edit e;
  e.kind = Kind::kFasterLink;
  e.factor = factor;
  return e;
}

Edit Edit::wider_link(double factor) {
  Edit e;
  e.kind = Kind::kWiderLink;
  e.factor = factor;
  return e;
}

Edit Edit::remove_dependence(std::uint64_t src, std::uint64_t dst) {
  Edit e;
  e.kind = Kind::kRemoveDependence;
  e.src_task = src;
  e.dst_task = dst;
  return e;
}

Edit Edit::move_task(std::uint64_t task, std::size_t to_pe) {
  Edit e;
  e.kind = Kind::kMoveTask;
  e.task = task;
  e.pe = to_pe;
  return e;
}

std::string Edit::describe() const {
  switch (kind) {
    case Kind::kFasterCore:
      return strformat("faster-core(pe%zu, x%.2f)", pe, factor);
    case Kind::kFasterLink:
      return strformat("faster-link(x%.2f)", factor);
    case Kind::kWiderLink:
      return strformat("wider-link(x%.2f)", factor);
    case Kind::kRemoveDependence:
      return strformat("remove-dep(%llu>%llu)",
                       static_cast<unsigned long long>(src_task),
                       static_cast<unsigned long long>(dst_task));
    case Kind::kMoveTask:
      return strformat("move-task(%llu->pe%zu)",
                       static_cast<unsigned long long>(task), pe);
  }
  return "edit";
}

namespace {

HertzT scale_hz(HertzT f, double factor) {
  const double v = static_cast<double>(f) * factor + 0.5;
  return v < 1.0 ? 1 : static_cast<HertzT>(v);
}

std::uint32_t scale_u32(std::uint32_t w, double factor) {
  const double v = static_cast<double>(w) * factor + 0.5;
  return v < 1.0 ? 1 : static_cast<std::uint32_t>(v);
}

DurationPs shrink_ps(DurationPs d, double factor) {
  if (factor <= 0.0) return d;
  return static_cast<DurationPs>(static_cast<double>(d) / factor + 0.5);
}

}  // namespace

EditedModel apply_edits(const sim::PlatformConfig& base,
                        std::span<const Edit> edits) {
  EditedModel em;
  em.cfg = base;
  for (const Edit& e : edits) {
    switch (e.kind) {
      case Edit::Kind::kFasterCore:
        if (e.pe < em.cfg.cores.size())
          em.cfg.cores[e.pe].frequency =
              scale_hz(em.cfg.cores[e.pe].frequency, e.factor);
        break;
      case Edit::Kind::kFasterLink:
        // "Faster" means clocking the whole fabric: bus clock, link clock
        // and (for the mesh) the router hop latency all scale together.
        em.cfg.bus.frequency = scale_hz(em.cfg.bus.frequency, e.factor);
        em.cfg.mesh.link_frequency =
            scale_hz(em.cfg.mesh.link_frequency, e.factor);
        em.cfg.mesh.hop_latency = shrink_ps(em.cfg.mesh.hop_latency, e.factor);
        break;
      case Edit::Kind::kWiderLink:
        em.cfg.bus.width_bytes = scale_u32(em.cfg.bus.width_bytes, e.factor);
        em.cfg.mesh.link_width_bytes =
            scale_u32(em.cfg.mesh.link_width_bytes, e.factor);
        break;
      case Edit::Kind::kRemoveDependence:
        em.removed.emplace_back(e.src_task, e.dst_task);
        break;
      case Edit::Kind::kMoveTask:
        em.moves.emplace_back(e.task, e.pe);
        break;
    }
  }
  return em;
}

// ---------------------------------------------------------------- retime

Retimed retime(const DepGraph& g, std::span<const Edit> edits,
               const maps::TaskGraph* oracle) {
  EditedModel em = apply_edits(g.platform(), edits);
  const std::size_t n = g.nodes().size();
  Retimed r;
  r.cfg = em.cfg;
  r.start.assign(n, 0);
  r.finish.assign(n, 0);
  r.binding.assign(n, kNoNode);
  r.dropped.assign(n, 0);
  r.seg_src.assign(n, 0);
  r.seg_dst.assign(n, 0);
  if (n == 0) return r;

  const std::size_t npes = em.cfg.cores.empty() ? 1 : em.cfg.cores.size();
  auto core_freq = [&](std::size_t pe) {
    return pe < em.cfg.cores.size() ? em.cfg.cores[pe].frequency : mhz(400);
  };
  auto core_class = [&](std::size_t pe) {
    return pe < em.cfg.cores.size() ? em.cfg.cores[pe].cls
                                    : sim::PeClass::kRisc;
  };
  auto moved_to = [&](std::uint64_t task) -> std::size_t {
    if (task == perf::kNoTask) return kNoNode;
    for (auto it = em.moves.rbegin(); it != em.moves.rend(); ++it)  // last wins
      if (it->first == task) return it->second % npes;
    return kNoNode;
  };
  auto is_removed = [&](std::uint64_t s, std::uint64_t d) {
    if (s == perf::kNoTask || d == perf::kNoTask) return false;
    for (const auto& p : em.removed)
      if (p.first == s && p.second == d) return true;
    return false;
  };

  // Pass 1: effective endpoints. Compute homes first (moves re-home them),
  // then transfers inherit their producer/consumer homes; a transfer whose
  // endpoint task never appeared in the trace keeps its observed PE.
  for (const Segment& s : g.nodes()) {
    if (s.kind != SegKind::kCompute) continue;
    std::size_t home = s.pe % npes;
    if (const std::size_t m = moved_to(s.task); m != kNoNode) home = m;
    r.seg_src[s.id] = r.seg_dst[s.id] = home;
  }
  for (const Segment& s : g.nodes()) {
    if (s.kind != SegKind::kTransfer) continue;
    std::size_t src = s.src_pe % npes;
    std::size_t dst = s.dst_pe % npes;
    if (const std::size_t p = g.node_of_task(s.src_task); p != kNoNode)
      src = r.seg_src[p];
    if (const std::size_t c = g.node_of_task(s.dst_task); c != kNoNode)
      dst = r.seg_src[c];
    r.seg_src[s.id] = src;
    r.seg_dst[s.id] = dst;
  }

  // Pass 2: forward replay with resource-availability state — the same
  // state the transactional executor carried, reconstructed. The fabric
  // is replayed with the live fabric's own rule: the route's links
  // reserved in turn on one sim::LinkCalendar.
  std::vector<TimePs> core_avail(npes, 0);
  std::vector<std::size_t> core_last(npes, kNoNode);
  sim::LinkCalendar links(sim::link_count(em.cfg));
  std::vector<std::size_t> link_last(links.size(), kNoNode);
  TimePs dma_avail = 0;
  std::size_t dma_last = kNoNode;

  // Reserve node i's route from `ready` at `occ` per link. Its start is
  // the first link's start (`ready` on an empty route), and a wait for
  // that link binds it to the link's previous occupant. Returns the last
  // link's finish.
  auto reserve_route = [&](std::size_t i, std::size_t src, std::size_t dst,
                           TimePs ready, DurationPs occ, std::size_t& bind) {
    r.start[i] = ready;
    TimePs t = ready;
    std::uint32_t n = 0;
    sim::for_each_route_link(
        em.cfg, sim::CoreId{static_cast<std::uint32_t>(src)},
        sim::CoreId{static_cast<std::uint32_t>(dst)}, [&](std::size_t link) {
          const auto [st, fin] = links.reserve(link, t, occ);
          if (n++ == 0) {
            r.start[i] = st;
            if (st > ready) bind = link_last[link];
          }
          t = fin;
          link_last[link] = i;
        });
    r.ops += sim::route_hops(em.cfg, n);
    return t;
  };

  for (const Segment& s : g.nodes()) {
    ++r.ops;
    const std::size_t i = s.id;
    if (s.kind == SegKind::kTransfer && is_removed(s.src_task, s.dst_task)) {
      r.dropped[i] = 1;
      continue;
    }

    TimePs ready = 0;
    std::size_t bind = kNoNode;
    for (const std::size_t p : g.dep_preds(i)) {
      ++r.ops;
      if (r.dropped[p]) continue;
      if (r.finish[p] > ready) {
        ready = r.finish[p];
        bind = p;
      }
    }

    switch (s.kind) {
      case SegKind::kCompute: {
        const std::size_t home = r.seg_src[i];
        Cycles cyc = s.cycles;
        if (oracle != nullptr && s.task != perf::kNoTask &&
            s.task < oracle->tasks().size())
          cyc = oracle->task(maps::TaskNodeId{static_cast<std::uint32_t>(s.task)})
                    .cycles_on(core_class(home));
        const DurationPs dur = cycles_to_ps(cyc, core_freq(home));
        TimePs st = ready;
        if (core_avail[home] > st) {
          st = core_avail[home];
          bind = core_last[home];
        }
        r.start[i] = st;
        r.finish[i] = st + dur;
        core_avail[home] = r.finish[i];
        core_last[home] = i;
        break;
      }
      case SegKind::kTransfer: {
        const std::size_t src = r.seg_src[i];
        const std::size_t dst = r.seg_dst[i];
        if (src == dst) {  // effective-local: no fabric occupancy
          r.start[i] = r.finish[i] = ready;
        } else {
          r.finish[i] = reserve_route(i, src, dst, ready,
                                      sim::link_occupancy(em.cfg, s.bytes),
                                      bind);
        }
        break;
      }
      case SegKind::kDma: {
        // Replayed at observed duration (no byte-level model to rescale).
        // The engine serializes, and it is an anonymous master on the
        // core 0 -> core 0 route (peripherals.cpp): link 0 on a bus, no
        // link on a mesh.
        TimePs st = ready;
        if (dma_avail > st) {
          st = dma_avail;
          bind = dma_last;
        }
        reserve_route(i, 0, 0, st, s.obs_duration(), bind);
        r.finish[i] = r.start[i] + s.obs_duration();
        dma_avail = r.finish[i];
        dma_last = i;
        break;
      }
    }
    r.binding[i] = bind;
    r.makespan = std::max(r.makespan, r.finish[i]);
  }
  return r;
}

// ------------------------------------------------------------- attribute

namespace {

struct OwnerAcc {
  SegKind kind = SegKind::kCompute;
  DurationPs ps = 0;
};

std::vector<Owner> sorted_owners(const std::map<std::string, OwnerAcc>& acc,
                                 TimePs makespan) {
  std::vector<Owner> out;
  out.reserve(acc.size());
  for (const auto& [name, a] : acc) {
    Owner o;
    o.name = name;
    o.kind = a.kind;
    o.ps = a.ps;
    o.share = makespan == 0
                  ? 0.0
                  : static_cast<double>(a.ps) / static_cast<double>(makespan);
    out.push_back(std::move(o));
  }
  std::sort(out.begin(), out.end(), [](const Owner& a, const Owner& b) {
    if (a.ps != b.ps) return a.ps > b.ps;
    return a.name < b.name;
  });
  return out;
}

}  // namespace

Attribution attribute(const DepGraph& g, const Retimed& r) {
  Attribution a;
  a.makespan = r.makespan;
  if (g.empty() || r.finish.size() != g.nodes().size()) return a;

  // Sink: latest finisher (lowest id on ties, for determinism).
  std::size_t sink = kNoNode;
  for (std::size_t i = 0; i < r.finish.size(); ++i) {
    if (r.dropped[i]) continue;
    if (sink == kNoNode || r.finish[i] > r.finish[sink]) sink = i;
  }
  if (sink == kNoNode) return a;

  // Binding chain, sink -> source. Contribution of a step is the slice of
  // time it alone explains: upper boundary minus its binding's finish
  // (clamped — a mesh predecessor can release the contended link before
  // its own node finishes). The sum telescopes to exactly the makespan.
  std::vector<PathStep> rev;
  TimePs upper = r.finish[sink];
  std::size_t cur = sink;
  while (cur != kNoNode) {
    const std::size_t b = r.binding[cur];
    const TimePs lower =
        b == kNoNode ? 0 : std::min<TimePs>(upper, r.finish[b]);
    rev.push_back({cur, upper - lower});
    upper = lower;
    cur = b;
  }
  a.path.assign(rev.rbegin(), rev.rend());

  std::map<std::string, OwnerAcc> tasks, chans, cores, links;
  auto bump = [](std::map<std::string, OwnerAcc>& m, const std::string& name,
                 SegKind k, DurationPs ps) {
    OwnerAcc& o = m[name];
    o.kind = k;
    o.ps += ps;
  };

  DurationPs accounted = 0;
  for (const PathStep& step : a.path) {
    const Segment& s = g.nodes()[step.node];
    const DurationPs c = step.contribution;
    accounted += c;
    switch (s.kind) {
      case SegKind::kCompute: {
        a.compute_ps += c;
        bump(tasks, s.label, s.kind, c);
        bump(cores, "core" + std::to_string(r.seg_src[step.node]), s.kind, c);
        break;
      }
      case SegKind::kTransfer: {
        a.transfer_ps += c;
        bump(chans, s.label, s.kind, c);
        const std::size_t src = r.seg_src[step.node];
        const std::size_t dst = r.seg_dst[step.node];
        if (src == dst) break;  // effective-local: no fabric to charge
        const sim::CoreId from{static_cast<std::uint32_t>(src)};
        const sim::CoreId to{static_cast<std::uint32_t>(dst)};
        const std::uint32_t n = sim::route_length(r.cfg, from, to);
        if (n == 0) break;
        // Split evenly across the route; the first link absorbs the
        // integer remainder so the split stays exact.
        const DurationPs share = c / n;
        DurationPs part = c - share * (n - 1);
        sim::for_each_route_link(r.cfg, from, to, [&](std::size_t link) {
          bump(links, sim::link_name(r.cfg, link), s.kind, part);
          part = share;  // only the first link differs
        });
        break;
      }
      case SegKind::kDma: {
        a.dma_ps += c;
        bump(links, "dma", s.kind, c);
        break;
      }
    }
  }
  a.idle_ps = a.makespan - accounted;

  a.by_task = sorted_owners(tasks, a.makespan);
  a.by_channel = sorted_owners(chans, a.makespan);
  a.by_core = sorted_owners(cores, a.makespan);
  a.by_link = sorted_owners(links, a.makespan);
  return a;
}

}  // namespace rw::critpath
