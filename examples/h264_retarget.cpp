// The HOPES flow (Figure 2 of the paper as running code): one CIC
// specification of an H.264-like encoder, two architecture information
// files (a Cell-like distributed-memory machine and an MPCore-like SMP),
// two generated programs — same outputs, different code and timing.
// This is the Sec. V retargetability demonstration.
#include <cstdio>

#include "cic/archfile.hpp"
#include "cic/model.hpp"
#include "cic/translator.hpp"
#include "common/table.hpp"

namespace {

rw::cic::CicProgram build_h264_like() {
  using namespace rw;
  cic::CicProgram p("h264enc");
  const auto cam = p.add_task("camera", 4'000, {}, {"y0", "y1"});
  p.set_period(cam, microseconds(800));
  const auto me0 = p.add_task("me0", 150'000, {"in"}, {"mv"});
  const auto me1 = p.add_task("me1", 150'000, {"in"}, {"mv"});
  const auto tq0 = p.add_task("tq0", 80'000, {"mv"}, {"coef"});
  const auto tq1 = p.add_task("tq1", 80'000, {"mv"}, {"coef"});
  const auto cabac = p.add_task("cabac", 110'000, {"c0", "c1"}, {});
  p.set_preferred_pe(me0, sim::PeClass::kDsp);
  p.set_preferred_pe(me1, sim::PeClass::kDsp);
  p.connect(cam, "y0", me0, "in", 16 * 1024);
  p.connect(cam, "y1", me1, "in", 16 * 1024);
  p.connect(me0, "mv", tq0, "mv", 4 * 1024);
  p.connect(me1, "mv", tq1, "mv", 4 * 1024);
  p.connect(tq0, "coef", cabac, "c0", 8 * 1024);
  p.connect(tq1, "coef", cabac, "c1", 8 * 1024);
  return p;
}

}  // namespace

int main() {
  using namespace rw;
  const cic::CicProgram app = build_h264_like();

  // Architecture information files — literally XML, as the paper says;
  // both targets are read back from theirs.
  const auto cell_file =
      cic::round_trip_arch_file(cic::ArchInfo::cell_like(6));
  const auto smp_file = cic::round_trip_arch_file(cic::ArchInfo::smp_like(4));
  for (const auto* file : {&cell_file, &smp_file}) {
    if (!file->ok()) {
      std::fprintf(stderr, "%s\n", file->error().to_string().c_str());
      return 1;
    }
  }
  const cic::ArchInfo& cell = cell_file.value();
  const cic::ArchInfo& smp = smp_file.value();
  std::printf("--- architecture file for '%s' ---\n%s\n", cell.name.c_str(),
              cic::arch_to_xml(cell).c_str());

  Table t({"target", "style", "makespan", "core util", "messages",
           "deadline misses"});
  std::string first_digest;
  bool digests_match = true;

  for (const auto* arch : {&cell, &smp}) {
    const auto mapping = cic::CicMapping::automatic(app, *arch);
    if (!mapping.ok()) {
      std::fprintf(stderr, "mapping failed: %s\n",
                   mapping.error().to_string().c_str());
      return 1;
    }
    auto target = cic::TargetProgram::translate(app, *arch, mapping.value());
    if (!target.ok()) {
      std::fprintf(stderr, "translate failed: %s\n",
                   target.error().to_string().c_str());
      return 1;
    }
    const auto r = target.value().run(30);

    // Digest of the sink outputs — must be identical across targets.
    std::string digest;
    for (const auto& [task, tokens] : r.sink_outputs)
      for (const auto v : tokens) digest += std::to_string(v % 9973) + ",";
    if (first_digest.empty()) {
      first_digest = digest;
    } else if (digest != first_digest) {
      digests_match = false;
    }

    t.add_row({arch->name, cic::memory_style_name(arch->style),
               format_time(r.makespan),
               Table::percent(r.mean_core_utilization),
               Table::num(r.messages), Table::num(r.deadline_misses)});
  }
  t.print("same CIC spec, two targets");

  std::printf("sink outputs identical across targets: %s\n",
              digests_match ? "YES (retargetability confirmed)"
                            : "NO (BUG!)");
  return digests_match ? 0 : 1;
}
