#include "fault/driver.hpp"

#include <fstream>
#include <iterator>
#include <optional>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "fault/plan.hpp"

namespace rw::fault {

namespace {

Result<RecoveryPolicy> parse_policy(const std::string& name) {
  for (RecoveryPolicy p :
       {RecoveryPolicy::kNone, RecoveryPolicy::kWatchdogRestart,
        RecoveryPolicy::kWatchdogRemap})
    if (name == recovery_policy_name(p)) return p;
  return make_error("unknown recovery policy: " + name);
}

void write_outcome(json::Writer& w, const ScenarioOutcome& oc) {
  w.begin_object();
  w.key("items_target").value(oc.items_target);
  w.key("items_done").value(oc.items_done);
  w.key("goodput").value(oc.goodput);
  w.key("healthy_makespan_ps").value(oc.healthy_makespan);
  w.key("finish_time_ps").value(oc.finish_time);
  w.key("makespan_ps").value(oc.makespan);
  w.key("deadlocked").value(oc.deadlocked);
  w.key("faults_injected").value(oc.faults_injected);
  w.key("crashes").value(oc.crashes);
  w.key("recoveries").value(oc.recoveries);
  w.key("restarts").value(oc.restarts);
  w.key("remaps").value(oc.remaps);
  w.key("sem_releases").value(oc.sem_releases);
  w.key("watchdog_expiries").value(oc.watchdog_expiries);
  w.key("sem_skips").value(oc.sem_skips);
  w.key("items_dropped").value(oc.items_dropped);
  w.key("gave_up").value(oc.gave_up);
  w.key("max_recovery_latency_ps").value(oc.max_recovery_latency);
  w.key("total_recovery_latency_ps").value(oc.total_recovery_latency);
  w.key("timeline");
  oc.timeline.write_json(w);
  w.end_object();
}

void write_config(json::Writer& w, const FaultOptions& opts) {
  w.begin_object();
  w.key("cores").value(static_cast<std::uint64_t>(opts.cores));
  w.key("mesh").value(opts.mesh);
  w.key("seed").value(opts.seed);
  w.key("items").value(opts.items);
  w.key("rate_per_ms").value(opts.rate_per_ms);
  w.key("crashes_only").value(opts.crashes_only);
  w.key("watchdog_timeout_ps").value(opts.watchdog_timeout);
  if (!opts.plan_path.empty()) w.key("plan_path").value(opts.plan_path);
  w.end_object();
}

std::string policy_json(const FaultOptions& opts, const PolicyOutcome& po) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-fault-policy-1");
  w.key("policy").value(recovery_policy_name(po.policy));
  w.key("config");
  write_config(w, opts);
  w.key("outcome");
  write_outcome(w, po.outcome);
  w.end_object();
  return w.str() + "\n";
}

ScenarioConfig scenario_config(const FaultOptions& opts,
                               RecoveryPolicy policy) {
  ScenarioConfig cfg;
  cfg.cores = opts.cores;
  cfg.mesh = opts.mesh;
  cfg.seed = opts.seed;
  cfg.items = opts.items;
  cfg.fault_rate_per_ms = static_cast<double>(opts.rate_per_ms);
  cfg.policy = policy;
  cfg.watchdog_timeout = opts.watchdog_timeout;
  cfg.crashes_only = opts.crashes_only;
  return cfg;
}

}  // namespace

Result<FaultOptions> parse_fault_args(const std::vector<std::string>& args) {
  FaultOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (RW_TRY(cli::parse_common_flag(args, i, opts))) {
      continue;
    } else if (a == "--mesh") {
      opts.mesh = true;
    } else if (a == "--crashes-only") {
      opts.crashes_only = true;
    } else if (a == "--cores") {
      opts.cores = static_cast<std::size_t>(RW_TRY(cli::arg_u64(args, i, a)));
      if (opts.cores == 0) return make_error("--cores must be >= 1");
    } else if (a == "--items") {
      opts.items = RW_TRY(cli::arg_u64(args, i, a));
      if (opts.items == 0) return make_error("--items must be >= 1");
    } else if (a == "--rate") {
      opts.rate_per_ms = RW_TRY(cli::arg_u64(args, i, a));
    } else if (a == "--timeout-us") {
      opts.watchdog_timeout = RW_TRY(cli::arg_us(args, i, a));
      if (opts.watchdog_timeout == 0)
        return make_error("--timeout-us must be >= 1");
    } else if (a == "--plan") {
      if (i + 1 >= args.size()) return make_error("--plan requires a file");
      opts.plan_path = args[++i];
    } else if (a == "--help" || a == "-h") {
      return make_error(std::string("usage: rwfault ") + cli::common_usage() +
                        " [--mesh] [--crashes-only] [--cores N] [--items K]"
                        " [--rate R] [--timeout-us U] [--plan FILE]"
                        " [policy...]");
    } else if (!a.empty() && a[0] == '-') {
      return make_error("unknown option: " + a);
    } else {
      opts.policies.push_back(RW_TRY(parse_policy(a)));
    }
  }
  return opts;
}

std::string fault_json(const FaultOptions& opts,
                       const std::vector<PolicyOutcome>& outcomes) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("rw-fault-run-1");
  w.key("config");
  write_config(w, opts);
  w.key("policies").begin_array();
  for (const PolicyOutcome& po : outcomes) {
    w.begin_object();
    w.key("policy").value(recovery_policy_name(po.policy));
    w.key("outcome");
    write_outcome(w, po.outcome);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

FaultReport run_fault(const FaultOptions& opts, std::ostream& out) {
  FaultReport rep;
  if (opts.list) {
    out << "recovery policies:\n";
    for (RecoveryPolicy p :
         {RecoveryPolicy::kNone, RecoveryPolicy::kWatchdogRestart,
          RecoveryPolicy::kWatchdogRemap})
      out << "  " << recovery_policy_name(p) << "\n";
    out << "fault kinds:\n";
    for (FaultKind k :
         {FaultKind::kCoreCrash, FaultKind::kCoreStall, FaultKind::kLinkDegrade,
          FaultKind::kPacketDrop, FaultKind::kMemBitFlip, FaultKind::kDmaAbort,
          FaultKind::kIrqDrop, FaultKind::kIrqSpurious})
      out << "  " << fault_kind_name(k) << "\n";
    return rep;
  }

  std::optional<FaultPlan> explicit_plan;
  if (!opts.plan_path.empty()) {
    std::ifstream f(opts.plan_path, std::ios::binary);
    if (!f) {
      out << "error: cannot read " << opts.plan_path << "\n";
      rep.exit_code = 2;
      return rep;
    }
    const std::string text{std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>()};
    auto parsed = FaultPlan::from_json(text);
    if (!parsed.ok()) {
      out << "error: " << opts.plan_path << ": "
          << parsed.error().to_string() << "\n";
      rep.exit_code = 2;
      return rep;
    }
    explicit_plan = std::move(parsed.value());
  }

  std::vector<RecoveryPolicy> policies = opts.policies;
  if (policies.empty())
    policies = {RecoveryPolicy::kNone, RecoveryPolicy::kWatchdogRestart,
                RecoveryPolicy::kWatchdogRemap};

  for (RecoveryPolicy policy : policies) {
    PolicyOutcome po;
    po.policy = policy;
    ScenarioConfig cfg = scenario_config(opts, policy);
    if (explicit_plan) cfg.explicit_plan = &*explicit_plan;
    po.outcome = run_fault_scenario(cfg);
    if (opts.write_files) {
      po.json_path = opts.out_dir + "/FAULT_" +
                     std::string(recovery_policy_name(policy)) + ".json";
      if (!cli::write_text(po.json_path, policy_json(opts, po))) {
        out << "error: failed writing " << po.json_path << "\n";
        rep.exit_code = 1;
      }
    }
    rep.outcomes.push_back(std::move(po));
  }

  if (opts.json_stdout) {
    out << cli::envelope("rwfault", opts.seed, fault_json(opts, rep.outcomes))
        << "\n";
    return rep;
  }

  out << strformat(
      "== e14 fault/recovery: %zu cores %s, %llu items, rate %llu/ms, "
      "seed %llu\n\n",
      opts.cores, opts.mesh ? "mesh" : "bus",
      static_cast<unsigned long long>(opts.items),
      static_cast<unsigned long long>(opts.rate_per_ms),
      static_cast<unsigned long long>(opts.seed));
  Table t({"policy", "goodput", "done", "deadlock", "faults", "crashes",
           "recov", "sem_rel", "wdt_exp", "max_rec_us", "makespan_us"});
  for (const PolicyOutcome& po : rep.outcomes) {
    const ScenarioOutcome& oc = po.outcome;
    t.add_row({recovery_policy_name(po.policy), Table::percent(oc.goodput),
               strformat("%llu/%llu",
                         static_cast<unsigned long long>(oc.items_done),
                         static_cast<unsigned long long>(oc.items_target)),
               oc.deadlocked ? "yes" : "no", Table::num(oc.faults_injected),
               Table::num(oc.crashes), Table::num(oc.recoveries),
               Table::num(oc.sem_releases), Table::num(oc.watchdog_expiries),
               strformat("%.3f",
                         static_cast<double>(oc.max_recovery_latency) * 1e-6),
               strformat("%.3f", static_cast<double>(oc.makespan) * 1e-6)});
  }
  out << t.to_string();
  for (const PolicyOutcome& po : rep.outcomes)
    if (!po.json_path.empty()) out << "\nwrote " << po.json_path;
  out << "\n";
  return rep;
}

}  // namespace rw::fault
