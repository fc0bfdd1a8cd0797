#include "fuzz/driver.hpp"

#include <fstream>
#include <sstream>

#include "common/strings.hpp"
#include "fault/plan.hpp"
#include "sim/core.hpp"

namespace rw::fuzz {
namespace {

Result<std::string> read_text(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return make_error("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void print_list(std::ostream& out) {
  out << "families:\n";
  for (std::size_t f = 0; f < kNumFamilies; ++f) {
    const Family fam = static_cast<Family>(f);
    out << "  " << family_name(fam)
        << (family_faultable(fam) ? "" : " (fault-free only)") << "\n";
  }
  out << "invariants:\n";
  for (const std::string& name : invariant_names()) out << "  " << name << "\n";
  out << "fault kinds:\n";
  for (std::size_t k = 0; k < fault::kNumFaultKinds; ++k)
    out << "  " << fault_kind_name(static_cast<fault::FaultKind>(k)) << "\n";
}

/// RAII arm/disarm so the defect hook never leaks past the run.
class DefectGuard {
 public:
  explicit DefectGuard(bool arm) : armed_(arm) {
    if (armed_) sim::set_seeded_defect(true);
  }
  ~DefectGuard() {
    if (armed_) sim::set_seeded_defect(false);
  }
  DefectGuard(const DefectGuard&) = delete;
  DefectGuard& operator=(const DefectGuard&) = delete;

 private:
  bool armed_;
};

int run_replay(const FuzzOptions& opts, std::ostream& out) {
  const auto text = read_text(opts.replay_path);
  if (!text.ok()) {
    out << "error: " << text.error().to_string() << "\n";
    return 2;
  }
  const auto parsed = CampaignCase::from_json(text.value());
  if (!parsed.ok()) {
    out << "error: " << opts.replay_path << ": "
        << parsed.error().to_string() << "\n";
    return 2;
  }
  const CampaignCase& c = parsed.value();
  out << "replaying " << c.summary() << "\n";
  const CaseOutcome outcome = run_case(c);
  out << strformat("sub-runs %llu, makespan %llu ps, fingerprint %016llx\n",
                   static_cast<unsigned long long>(outcome.sub_runs),
                   static_cast<unsigned long long>(outcome.makespan),
                   static_cast<unsigned long long>(outcome.fingerprint));
  if (outcome.ok()) {
    out << "all invariants hold\n";
    return 0;
  }
  for (const Violation& v : outcome.violations)
    out << "VIOLATION " << v.invariant << ": " << v.detail << "\n";
  return 1;
}

Result<std::uint32_t> family_mask_for(const std::string& name) {
  if (name.empty()) return std::uint32_t{0};
  Family fam = Family::kPipeline;
  if (!family_from_name(name, fam))
    return make_error("unknown family: " + name);
  return family_bit(fam);
}

}  // namespace

Result<FuzzOptions> parse_fuzz_args(const std::vector<std::string>& args) {
  FuzzOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (RW_TRY(cli::parse_common_flag(args, i, opts))) {
      continue;
    } else if (a == "--threads") {
      opts.threads = RW_TRY(cli::arg_uint<std::uint32_t>(args, i, a));
      if (opts.threads == 0)
        return make_error("--threads must be at least 1");
    } else if (a == "--seeds") {
      opts.seeds = RW_TRY(cli::arg_u64(args, i, a));
      if (opts.seeds == 0) return make_error("--seeds must be >= 1");
    } else if (a == "--minutes") {
      opts.minutes = static_cast<double>(RW_TRY(cli::arg_u64(args, i, a)));
    } else if (a == "--shrink") {
      opts.shrink = true;  // the default; kept for explicit invocations
    } else if (a == "--no-shrink") {
      opts.shrink = false;
    } else if (a == "--matrix") {
      opts.matrix = true;
    } else if (a == "--tiny") {
      opts.tiny = true;
    } else if (a == "--defect") {
      opts.defect = true;
    } else if (a == "--family") {
      if (i + 1 >= args.size()) return make_error("--family requires a value");
      opts.family = args[++i];
    } else if (a == "--replay") {
      if (i + 1 >= args.size()) return make_error("--replay requires a value");
      opts.replay_path = args[++i];
    } else if (a == "--help" || a == "-h") {
      return make_error(std::string("usage: rwfuzz ") + cli::common_usage() +
                        " [--threads N] [--seeds N] [--minutes M]"
                        " [--shrink|--no-shrink]"
                        " [--matrix] [--tiny] [--family NAME]"
                        " [--replay FILE] [--defect]");
    } else {
      return make_error("unknown option: " + a);
    }
  }
  RW_TRY(family_mask_for(opts.family));  // validate early
  return opts;
}

FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream& out) {
  FuzzReport rep;
  if (opts.list) {
    print_list(out);
    return rep;
  }
  if (opts.defect && !sim::seeded_defect_compiled()) {
    out << "error: --defect requires a build with -DRW_SEEDED_DEFECT=ON\n";
    rep.exit_code = 2;
    return rep;
  }
  const DefectGuard guard(opts.defect);

  if (!opts.replay_path.empty()) {
    rep.exit_code = run_replay(opts, out);
    return rep;
  }

  CampaignConfig cfg;
  cfg.seeds = opts.seeds;
  cfg.base_seed = opts.seed;
  cfg.minutes = opts.minutes;
  cfg.shrink = opts.shrink;
  cfg.tiny = opts.tiny;
  cfg.threads = opts.threads;
  cfg.family_mask = family_mask_for(opts.family).value_or(0);
  rep.campaign = run_campaign(cfg);
  const CampaignReport& camp = rep.campaign;
  if (!camp.green()) rep.exit_code = 1;

  std::vector<std::string> wrote;
  bool write_failed = false;
  if (opts.write_files) {
    const std::string path = opts.out_dir + "/FUZZ_campaign.json";
    if (cli::write_text(path, camp.to_json() + "\n"))
      wrote.push_back(path);
    else
      write_failed = true;
    for (const FailureReport& f : camp.failures) {
      const std::string case_path =
          strformat("%s/FUZZ_case_%llu.json", opts.out_dir.c_str(),
                    static_cast<unsigned long long>(f.case_seed));
      const std::string stub_path =
          strformat("%s/FUZZ_stub_%llu.cpp", opts.out_dir.c_str(),
                    static_cast<unsigned long long>(f.case_seed));
      if (cli::write_text(case_path, f.minimal.to_json() + "\n"))
        wrote.push_back(case_path);
      else
        write_failed = true;
      if (cli::write_text(stub_path, f.regression_stub()))
        wrote.push_back(stub_path);
      else
        write_failed = true;
    }
  }
  if (write_failed && rep.exit_code == 0) rep.exit_code = 2;

  if (opts.json_stdout) {
    out << cli::envelope("rwfuzz", opts.seed, camp.to_json()) << "\n";
    return rep;
  }

  out << strformat("== rwfuzz campaign: %llu seeds (base %llu)%s%s\n\n",
                   static_cast<unsigned long long>(opts.seeds),
                   static_cast<unsigned long long>(opts.seed),
                   opts.tiny ? ", tiny" : "",
                   opts.defect ? ", seeded defect armed" : "");
  out << camp.summary_table().to_string() << "\n";
  if (opts.matrix) {
    out << "coverage (family x kind, policy/exec collapsed):\n"
        << camp.coverage.to_table().to_string() << "\n";
  }
  for (const FailureReport& f : camp.failures) {
    out << "FAILURE seed " << f.case_seed << ": " << f.violation.invariant
        << " — " << f.violation.detail << "\n";
    out << "  original: " << f.original.summary() << "\n";
    if (f.shrunk)
      out << strformat("  shrunk (%llu steps, %llu attempts%s): %s\n",
                       static_cast<unsigned long long>(f.shrink_steps),
                       static_cast<unsigned long long>(f.shrink_attempts),
                       f.shrink_at_budget ? ", at budget" : "",
                       f.minimal.summary().c_str());
  }
  if (write_failed) out << "error: failed writing output files\n";
  for (const std::string& path : wrote) out << "wrote " << path << "\n";
  out << (camp.green() ? "campaign green\n" : "campaign FAILED\n");
  return rep;
}

}  // namespace rw::fuzz
