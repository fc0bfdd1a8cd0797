// E7 — Sec. V: "we have designed a CIC translator for the Cell processor
// with an H.264 encoding algorithm as an example. From the same CIC
// specification, we also generated a parallel program for an MPCore
// processor that is a symmetric multi-processor, which confirms the
// retargetability of the CIC model."
//
// Shape to reproduce: one CIC spec, multiple architecture files; outputs
// are bit-identical everywhere while generated code, timing, utilization
// and message counts differ per target. Also: scaling the Cell-like
// target's SPE count improves throughput without touching the program.
#include <cstdio>

#include "cic/archfile.hpp"
#include "cic/model.hpp"
#include "cic/translator.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

rw::cic::CicProgram h264_like(std::uint32_t slices) {
  using namespace rw;
  cic::CicProgram p("h264enc");
  const auto cam = p.add_task("camera", 4'000, {}, [&] {
    std::vector<std::string> outs;
    for (std::uint32_t s = 0; s < slices; ++s)
      outs.push_back(strformat("y%u", s));
    return outs;
  }());
  p.set_period(cam, microseconds(900));
  std::vector<std::string> cabac_ins;
  for (std::uint32_t s = 0; s < slices; ++s)
    cabac_ins.push_back(strformat("c%u", s));
  const auto cabac =
      p.add_task("cabac", 110'000, cabac_ins, {});
  for (std::uint32_t s = 0; s < slices; ++s) {
    const auto me = p.add_task("me" + std::to_string(s), 140'000, {"in"},
                               {"mv"});
    const auto tq = p.add_task("tq" + std::to_string(s), 70'000, {"mv"},
                               {"coef"});
    p.set_preferred_pe(me, rw::sim::PeClass::kDsp);
    p.connect(cam, strformat("y%u", s), me, "in", 16 * 1024);
    p.connect(me, "mv", tq, "mv", 4 * 1024);
    p.connect(tq, "coef", cabac, strformat("c%u", s), 8 * 1024);
  }
  return p;
}

}  // namespace

int main() {
  using namespace rw;
  using namespace rw::cic;

  const CicProgram app = h264_like(3);
  std::printf("E7: CIC retargetability — one spec (%zu tasks), many "
              "targets\n", app.tasks().size());

  Table t({"target", "style", "PEs", "makespan", "core util", "messages",
           "outputs match ref?"});
  std::string reference;
  for (const auto& builtin :
       {ArchInfo::cell_like(2), ArchInfo::cell_like(4),
        ArchInfo::cell_like(6), ArchInfo::smp_like(2),
        ArchInfo::smp_like(4), ArchInfo::smp_like(8)}) {
    // Every target is read back from its architecture information file.
    const auto read = round_trip_arch_file(builtin);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.error().to_string().c_str());
      return 1;
    }
    const ArchInfo& arch = read.value();
    const auto mapping = CicMapping::automatic(app, arch);
    if (!mapping.ok()) continue;
    auto target = TargetProgram::translate(app, arch, mapping.value());
    if (!target.ok()) continue;
    const auto r = target.value().run(40);

    std::string digest;
    for (const auto& [task, tokens] : r.sink_outputs)
      for (const auto v : tokens) digest += std::to_string(v) + ";";
    if (reference.empty()) reference = digest;

    t.add_row({strformat("%s/%zu", arch.name.c_str(),
                         arch.platform.cores.size()),
               memory_style_name(arch.style),
               Table::num(static_cast<std::uint64_t>(
                   arch.platform.cores.size())),
               format_time(r.makespan),
               Table::percent(r.mean_core_utilization),
               Table::num(r.messages),
               digest == reference ? "yes" : "NO"});
  }
  t.print("same CicProgram across six targets");

  // The code actually differs per back end:
  const auto cell = round_trip_arch_file(ArchInfo::cell_like(4)).value();
  const auto smp = round_trip_arch_file(ArchInfo::smp_like(4)).value();
  auto tc = TargetProgram::translate(app, cell,
                                     CicMapping::automatic(app, cell).value());
  auto ts = TargetProgram::translate(app, smp,
                                     CicMapping::automatic(app, smp).value());
  const std::string cc = tc.value().generated_code();
  const std::string cs = ts.value().generated_code();
  std::printf("generated primitives: cell-like uses dma_send/msgq_recv "
              "(%s), smp uses\nshm_ring+lock (%s)\n",
              cc.find("dma_send") != std::string::npos ? "yes" : "no",
              cs.find("shm_ring_push") != std::string::npos ? "yes" : "no");
  std::printf("expected shape: every row says outputs match; timing and "
              "message counts differ;\nmore SPEs shorten the cell-like "
              "makespan without touching the program.\n");
  return 0;
}
