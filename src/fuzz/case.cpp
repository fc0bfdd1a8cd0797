#include "fuzz/case.hpp"

#include "common/json.hpp"
#include "common/strings.hpp"
#include "sim/parallel.hpp"

namespace rw::fuzz {

const char* family_name(Family f) {
  switch (f) {
    case Family::kPipeline: return "pipeline";
    case Family::kForkjoin: return "forkjoin";
    case Family::kSharedHammer: return "shared_hammer";
    case Family::kTiledPipeline: return "tiled_pipeline";
    case Family::kFaultPipeline: return "fault_pipeline";
    case Family::kMaps: return "maps";
    case Family::kErt: return "ert";
  }
  return "?";
}

bool family_from_name(std::string_view name, Family& out) {
  for (std::size_t i = 0; i < kNumFamilies; ++i) {
    const auto f = static_cast<Family>(i);
    if (name == family_name(f)) {
      out = f;
      return true;
    }
  }
  return false;
}

bool family_faultable(Family f) {
  return f != Family::kMaps && f != Family::kErt;
}

namespace {

Result<sim::QueuePolicy> queue_from_name(const std::string& name) {
  for (const auto p :
       {sim::QueuePolicy::kCalendar, sim::QueuePolicy::kBinaryHeap})
    if (name == sim::queue_policy_name(p)) return p;
  return make_error("fuzz case: unknown queue policy '" + name + "'");
}

Result<fault::RecoveryPolicy> recovery_from_name(const std::string& name) {
  for (const auto p :
       {fault::RecoveryPolicy::kNone, fault::RecoveryPolicy::kWatchdogRestart,
        fault::RecoveryPolicy::kWatchdogRemap})
    if (name == fault::recovery_policy_name(p)) return p;
  return make_error("fuzz case: unknown recovery policy '" + name + "'");
}

/// Strict integer field: present, numeric, integral.
Result<std::uint64_t> req_u64(const json::Value& doc, const char* field) {
  const json::Value* v = doc.get(field);
  bool integral = false;
  std::uint64_t out = 0;
  if (v != nullptr && v->is_number()) out = v->u64(&integral);
  if (!integral)
    return make_error(std::string("fuzz case: field '") + field +
                      "' missing or not an integer");
  return out;
}

Result<bool> req_bool(const json::Value& doc, const char* field) {
  const json::Value* v = doc.get(field);
  if (v == nullptr || !v->is_bool())
    return make_error(std::string("fuzz case: field '") + field +
                      "' missing or not a bool");
  return v->boolean();
}

Result<std::string> req_string(const json::Value& doc, const char* field) {
  const json::Value* v = doc.get(field);
  if (v == nullptr || !v->is_string())
    return make_error(std::string("fuzz case: field '") + field +
                      "' missing or not a string");
  return v->string();
}

}  // namespace

sim::PlatformConfig CampaignCase::platform_config(sim::QueuePolicy policy,
                                                  bool parallel) const {
  sim::PlatformConfig pc = sim::PlatformConfig::homogeneous(cores);
  pc.kernel.policy = policy;
  if (mesh) pc.use_square_mesh();
  if (tiles > 1) {
    sim::apply_tiling(pc, tiles, family == Family::kTiledPipeline);
    // apply_tiling arms kParallel; the oracle's exec twin keeps the tile
    // partition (so per-tile trace digests stay comparable) and flips
    // only the execution mode.
    pc.kernel.exec =
        parallel ? sim::ExecMode::kParallel : sim::ExecMode::kSequential;
  }
  return pc;
}

std::string CampaignCase::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-fuzz-case-1");
  w.key("seed").value(seed);
  w.key("family").value(family_name(family));
  w.key("cores").value(static_cast<std::uint64_t>(cores));
  w.key("mesh").value(mesh);
  w.key("tiles").value(static_cast<std::uint64_t>(tiles));
  w.key("queue").value(sim::queue_policy_name(queue));
  w.key("scale").value(scale);
  w.key("items").value(items);
  w.key("compute_cycles").value(compute_cycles);
  w.key("recovery").value(fault::recovery_policy_name(recovery));
  w.key("watchdog_timeout_ps")
      .value(static_cast<std::uint64_t>(watchdog_timeout));
  w.key("graph_tasks").value(static_cast<std::uint64_t>(graph_tasks));
  w.key("dynamic_mapper").value(dynamic_mapper);
  w.key("tenants").value(static_cast<std::uint64_t>(tenants));
  w.key("jobs_per_tenant").value(static_cast<std::uint64_t>(jobs_per_tenant));
  w.key("static_admission").value(static_admission);
  w.key("plan");
  plan.write_json(w);
  w.end_object();
  return w.str();
}

Result<CampaignCase> CampaignCase::from_json(std::string_view text) {
  const json::Value doc = RW_TRY(json::parse(text));
  if (!doc.is_object())
    return make_error("fuzz case: document is not an object");
  if (const std::string schema = doc.get_string("schema");
      schema != "rw-fuzz-case-1")
    return make_error("fuzz case: unsupported schema '" + schema + "'");

  CampaignCase c;
  c.seed = RW_TRY(req_u64(doc, "seed"));
  Family f = Family::kPipeline;
  if (!family_from_name(RW_TRY(req_string(doc, "family")), f))
    return make_error("fuzz case: unknown family");
  c.family = f;
  c.cores = static_cast<std::uint32_t>(RW_TRY(req_u64(doc, "cores")));
  c.mesh = RW_TRY(req_bool(doc, "mesh"));
  c.tiles = static_cast<std::uint32_t>(RW_TRY(req_u64(doc, "tiles")));
  c.queue = RW_TRY(queue_from_name(RW_TRY(req_string(doc, "queue"))));
  c.scale = RW_TRY(req_u64(doc, "scale"));
  c.items = RW_TRY(req_u64(doc, "items"));
  c.compute_cycles = RW_TRY(req_u64(doc, "compute_cycles"));
  c.recovery =
      RW_TRY(recovery_from_name(RW_TRY(req_string(doc, "recovery"))));
  c.watchdog_timeout =
      static_cast<DurationPs>(RW_TRY(req_u64(doc, "watchdog_timeout_ps")));
  c.graph_tasks =
      static_cast<std::uint32_t>(RW_TRY(req_u64(doc, "graph_tasks")));
  c.dynamic_mapper = RW_TRY(req_bool(doc, "dynamic_mapper"));
  c.tenants = static_cast<std::uint32_t>(RW_TRY(req_u64(doc, "tenants")));
  c.jobs_per_tenant =
      static_cast<std::uint32_t>(RW_TRY(req_u64(doc, "jobs_per_tenant")));
  c.static_admission = RW_TRY(req_bool(doc, "static_admission"));
  const json::Value* plan = doc.get("plan");
  if (plan == nullptr)
    return make_error("fuzz case: missing plan object");
  c.plan = RW_TRY(fault::FaultPlan::from_json_value(*plan));

  if (c.cores < 2) return make_error("fuzz case: cores must be >= 2");
  if (c.tiles < 1 || c.tiles > c.cores)
    return make_error("fuzz case: tiles must be in [1, cores]");
  if (c.scale < 1) return make_error("fuzz case: scale must be >= 1");
  if (c.graph_tasks < 2)
    return make_error("fuzz case: graph_tasks must be >= 2");
  if (c.tenants < 1 || c.jobs_per_tenant < 1)
    return make_error("fuzz case: tenants and jobs_per_tenant must be >= 1");
  if (!family_faultable(c.family) && !c.plan.empty())
    return make_error("fuzz case: family takes no fault plan");
  return c;
}

std::string CampaignCase::summary() const {
  std::string s = strformat("seed=%llu %s cores=%u %s tiles=%u queue=%s",
                            static_cast<unsigned long long>(seed),
                            family_name(family), cores, mesh ? "mesh" : "bus",
                            tiles, sim::queue_policy_name(queue));
  switch (family) {
    case Family::kFaultPipeline:
      s += strformat(" items=%llu cycles=%llu recovery=%s wdt=%lluns",
                     static_cast<unsigned long long>(items),
                     static_cast<unsigned long long>(compute_cycles),
                     fault::recovery_policy_name(recovery),
                     static_cast<unsigned long long>(watchdog_timeout / 1000));
      break;
    case Family::kMaps:
      s += strformat(" tasks=%u mapper=%s", graph_tasks,
                     dynamic_mapper ? "dynamic" : "heft");
      break;
    case Family::kErt:
      s += strformat(" tenants=%u jobs=%u%s", tenants, jobs_per_tenant,
                     static_admission ? " static_admission" : "");
      break;
    default:
      s += strformat(" scale=%llu",
                     static_cast<unsigned long long>(scale));
      break;
  }
  s += strformat(" plan=%zuev", plan.size());
  return s;
}

}  // namespace rw::fuzz
