#include "critpath/depgraph.hpp"

#include <algorithm>

namespace rw::critpath {

const char* seg_kind_name(SegKind k) {
  switch (k) {
    case SegKind::kCompute:
      return "compute";
    case SegKind::kTransfer:
      return "transfer";
    case SegKind::kDma:
      return "dma";
  }
  return "unknown";
}

DepGraph DepGraph::build(const perf::TraceView& view,
                         const sim::PlatformConfig& cfg) {
  DepGraph g;
  g.cfg_ = cfg;
  if (view.empty()) return g;

  // Merge the typed spans into one node list ordered by trace encounter
  // (`seq` is the opening event's index, so the order is strict).
  struct Staged {
    std::size_t seq;
    Segment seg;
  };
  std::vector<Staged> staged;
  staged.reserve(view.span_count());
  for (const auto& s : view.computes()) {
    Segment n;
    n.kind = SegKind::kCompute;
    n.label = s.label;
    n.pe = s.core.is_valid() ? s.core.index() : 0;
    n.task = s.task;
    n.cycles = s.cycles;
    n.ref_cycles = s.ref_cycles;
    n.obs_start = s.start;
    n.obs_finish = s.finish;
    staged.push_back({s.seq, std::move(n)});
  }
  for (const auto& s : view.transfers()) {
    Segment n;
    n.kind = SegKind::kTransfer;
    n.label = s.label;
    n.src_pe = s.src_core.is_valid() ? s.src_core.index() : 0;
    n.dst_pe = s.dst_core.is_valid() ? s.dst_core.index() : 0;
    n.src_task = s.src_task;
    n.dst_task = s.dst_task;
    n.bytes = s.bytes;
    n.local = s.local();
    n.obs_start = s.start;
    n.obs_finish = s.finish;
    staged.push_back({s.seq, std::move(n)});
  }
  for (const auto& s : view.dmas()) {
    Segment n;
    n.kind = SegKind::kDma;
    n.label = "dma";
    n.bytes = s.bytes;
    n.obs_start = s.start;
    n.obs_finish = s.finish;
    staged.push_back({s.seq, std::move(n)});
  }
  std::sort(staged.begin(), staged.end(),
            [](const Staged& a, const Staged& b) { return a.seq < b.seq; });

  g.nodes_.reserve(staged.size());
  for (auto& st : staged) {
    st.seg.id = g.nodes_.size();
    g.obs_makespan_ = std::max(g.obs_makespan_, st.seg.obs_finish);
    g.nodes_.push_back(std::move(st.seg));
  }
  g.dep_preds_.assign(g.nodes_.size(), {});

  // Task identity -> compute node (first occurrence wins; the traced
  // executor runs every task exactly once).
  for (const Segment& n : g.nodes_) {
    if (n.kind == SegKind::kCompute && n.task != perf::kNoTask)
      g.task_to_node_.emplace_back(n.task, n.id);
  }
  std::sort(g.task_to_node_.begin(), g.task_to_node_.end());
  g.task_to_node_.erase(
      std::unique(g.task_to_node_.begin(), g.task_to_node_.end(),
                  [](const auto& a, const auto& b) { return a.first == b.first; }),
      g.task_to_node_.end());

  auto add_dep = [&](std::size_t src, std::size_t dst) {
    // Foreign traces could in principle present an endpoint out of order;
    // a backward edge would break the single-forward-sweep replay, so it
    // is dropped rather than trusted.
    if (src == kNoNode || dst == kNoNode || src >= dst) return;
    g.edges_.push_back({src, dst, EdgeKind::kDependence});
    g.dep_preds_[dst].push_back(src);
  };

  // Dependence edges: producer-task -> transfer -> consumer-task. Resource
  // chains (same core / same link / DMA engine) are recorded as explicit
  // edges too, for bookkeeping and the acyclicity proof, but the replay in
  // analysis.cpp re-derives serialization from its own availability state
  // (dep_preds() carries dependence edges only).
  std::vector<std::size_t> last_on_pe(cfg.cores.empty() ? 1 : cfg.cores.size(),
                                      kNoNode);
  std::vector<std::size_t> last_on_link(sim::link_count(cfg), kNoNode);
  std::size_t last_dma = kNoNode;

  auto add_resource = [&](std::size_t& last, std::size_t n) {
    if (last != kNoNode && last < n)
      g.edges_.push_back({last, n, EdgeKind::kResource});
    last = n;
  };
  // Chain node `n` behind the previous occupant of each link of the
  // src -> dst route (sim::for_each_route_link), once per occupant.
  auto occupy_route = [&](std::size_t src, std::size_t dst, std::size_t n) {
    std::size_t prev = kNoNode;  // dedupe shared-route predecessors
    sim::for_each_route_link(
        cfg, sim::CoreId{static_cast<std::uint32_t>(src)},
        sim::CoreId{static_cast<std::uint32_t>(dst)}, [&](std::size_t link) {
          if (last_on_link[link] != kNoNode && last_on_link[link] != prev) {
            std::size_t last = last_on_link[link];
            add_resource(last, n);
            prev = last_on_link[link];
          }
          last_on_link[link] = n;
        });
  };

  for (const Segment& n : g.nodes_) {
    switch (n.kind) {
      case SegKind::kCompute: {
        if (n.pe >= last_on_pe.size()) last_on_pe.resize(n.pe + 1, kNoNode);
        add_resource(last_on_pe[n.pe], n.id);
        break;
      }
      case SegKind::kTransfer: {
        add_dep(g.node_of_task(n.src_task), n.id);
        add_dep(n.id, g.node_of_task(n.dst_task));
        if (n.local) break;  // same-PE record: no fabric occupancy
        occupy_route(n.src_pe, n.dst_pe, n.id);
        break;
      }
      case SegKind::kDma: {
        add_resource(last_dma, n.id);
        // The engine is an anonymous master on the core 0 -> core 0 route
        // (peripherals.cpp): on a shared bus it occupies the arbiter every
        // core-to-core message uses.
        occupy_route(0, 0, n.id);
        break;
      }
    }
  }
  return g;
}

std::size_t DepGraph::node_of_task(std::uint64_t t) const {
  if (t == perf::kNoTask) return kNoNode;
  auto it = std::lower_bound(
      task_to_node_.begin(), task_to_node_.end(), t,
      [](const auto& p, std::uint64_t key) { return p.first < key; });
  if (it == task_to_node_.end() || it->first != t) return kNoNode;
  return it->second;
}

std::size_t DepGraph::dependence_edge_count() const {
  return static_cast<std::size_t>(
      std::count_if(edges_.begin(), edges_.end(), [](const DepEdge& e) {
        return e.kind == EdgeKind::kDependence;
      }));
}

std::size_t DepGraph::resource_edge_count() const {
  return edges_.size() - dependence_edge_count();
}

}  // namespace rw::critpath
