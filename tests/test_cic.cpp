#include <gtest/gtest.h>

#include "cic/archfile.hpp"
#include "cic/model.hpp"
#include "cic/translator.hpp"

#include "common/strings.hpp"

namespace rw::cic {
namespace {

/// Small H.264-ish pipeline: camera -> me -> tq -> cabac (sink), with an
/// intra branch feeding tq as a second input.
CicProgram pipeline_program() {
  CicProgram p("h264mini");
  const auto cam = p.add_task("camera", 2'000, {}, {"raw", "raw2"});
  p.set_period(cam, microseconds(500));
  const auto me = p.add_task("me", 60'000, {"in"}, {"mv"});
  const auto intra = p.add_task("intra", 25'000, {"in"}, {"pred"});
  const auto tq = p.add_task("tq", 40'000, {"mv", "pred"}, {"coef"});
  const auto cabac = p.add_task("cabac", 30'000, {"coef"}, {});
  EXPECT_TRUE(p.connect(cam, "raw", me, "in", 256).ok());
  EXPECT_TRUE(p.connect(cam, "raw2", intra, "in", 128).ok());
  EXPECT_TRUE(p.connect(me, "mv", tq, "mv", 64).ok());
  EXPECT_TRUE(p.connect(intra, "pred", tq, "pred", 64).ok());
  EXPECT_TRUE(p.connect(tq, "coef", cabac, "coef", 128).ok());
  return p;
}

TEST(CicModel, ValidatesCleanProgram) {
  EXPECT_TRUE(pipeline_program().validate().ok());
}

TEST(CicModel, RejectsUnwiredPort) {
  CicProgram p;
  const auto a = p.add_task("a", 100, {}, {"out"});
  p.set_period(a, microseconds(10));
  p.add_task("b", 100, {"in"}, {});
  // b.in never connected.
  EXPECT_FALSE(p.validate().ok());
  (void)a;
}

TEST(CicModel, RejectsDoublyWiredPort) {
  CicProgram p;
  const auto a = p.add_task("a", 100, {}, {"o1", "o2"});
  p.set_period(a, microseconds(10));
  const auto b = p.add_task("b", 100, {"in"}, {});
  EXPECT_TRUE(p.connect(a, "o1", b, "in").ok());
  EXPECT_TRUE(p.connect(a, "o2", b, "in").ok());  // structurally recorded
  EXPECT_FALSE(p.validate().ok());                // but invalid
}

TEST(CicModel, RejectsAperiodicSource) {
  CicProgram p;
  const auto a = p.add_task("a", 100, {}, {"out"});
  const auto b = p.add_task("b", 100, {"in"}, {});
  EXPECT_TRUE(p.connect(a, "out", b, "in").ok());
  EXPECT_FALSE(p.validate().ok());  // source has no period
}

TEST(CicModel, ConnectRejectsBadPortNames) {
  CicProgram p;
  const auto a = p.add_task("a", 100, {}, {"out"});
  const auto b = p.add_task("b", 100, {"in"}, {});
  EXPECT_FALSE(p.connect(a, "nope", b, "in").ok());
  EXPECT_FALSE(p.connect(a, "out", b, "nope").ok());
}

TEST(ArchFile, BuiltinTargetsDiffer) {
  const auto cell = ArchInfo::cell_like();
  const auto smp = ArchInfo::smp_like();
  EXPECT_EQ(cell.style, MemoryStyle::kDistributed);
  EXPECT_EQ(smp.style, MemoryStyle::kShared);
  EXPECT_GT(cell.platform.cores.size(), 1u);
}

TEST(ArchFile, ParsesWellFormedFile) {
  const auto r = parse_arch_file(R"(
    <architecture name="demo" style="shared">
      <processor class="RISC" freq="400000000" count="4" scratchpad="32768"/>
      <memory kind="shared" bytes="2097152" latency="10"/>
      <interconnect kind="bus" freq="266000000" width="8"/>
      <lock cycles="55"/>
    </architecture>)");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  const auto& a = r.value();
  EXPECT_EQ(a.name, "demo");
  EXPECT_EQ(a.style, MemoryStyle::kShared);
  EXPECT_EQ(a.platform.cores.size(), 4u);
  EXPECT_EQ(a.platform.cores[0].frequency, mhz(400));
  EXPECT_EQ(a.platform.shared_mem_bytes, 2097152u);
  EXPECT_EQ(a.lock_cycles, 55u);
}

TEST(ArchFile, ParsesMeshInterconnect) {
  const auto r = parse_arch_file(R"(
    <architecture name="noc" style="distributed">
      <processor class="DSP" freq="600000000" count="16"/>
      <interconnect kind="mesh" width="4" height="4" freq="500000000"/>
    </architecture>)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().platform.interconnect,
            sim::PlatformConfig::Icn::kMesh);
  EXPECT_EQ(r.value().platform.mesh.width, 4u);
}

TEST(ArchFile, RejectsGarbage) {
  EXPECT_FALSE(parse_arch_file("<arch/>").ok());
  EXPECT_FALSE(parse_arch_file("<architecture name='x'/>").ok());  // no PEs
  EXPECT_FALSE(parse_arch_file(R"(
    <architecture><processor class="QUANTUM"/></architecture>)").ok());
  EXPECT_FALSE(parse_arch_file(R"(
    <architecture style="weird"><processor class="RISC"/></architecture>)")
                   .ok());
}

TEST(ArchFile, RejectsASharedMemoryPastTheAddressSpace) {
  const auto r = parse_arch_file(R"(
    <architecture name="huge">
      <processor class="RISC"/>
      <memory kind="shared" bytes="1125899906842624"/>
    </architecture>)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("shared memory"), std::string::npos)
      << r.error().to_string();
  EXPECT_EQ(r.error().line, 4);  // the <memory> element
}

TEST(ArchFile, AcceptsTheLargestSharedMemory) {
  const auto r = parse_arch_file(strformat(R"(
    <architecture name="big">
      <processor class="RISC"/>
      <memory kind="shared" bytes="%llu"/>
    </architecture>)",
      static_cast<unsigned long long>(sim::kMaxSharedMemBytes)));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().platform.shared_mem_bytes, sim::kMaxSharedMemBytes);
  const sim::Platform plat(r.value().platform);
  EXPECT_EQ(plat.shared_base(), sim::kSharedBase);
}

TEST(ArchFile, RoundTripsThroughXml) {
  const auto orig = ArchInfo::cell_like(4);
  const auto r = parse_arch_file(arch_to_xml(orig));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().style, orig.style);
  EXPECT_EQ(r.value().platform.cores.size(), orig.platform.cores.size());
  EXPECT_EQ(r.value().platform.interconnect, orig.platform.interconnect);
}


TEST(ArchFile, RendersTheDocumentedLayout) {
  EXPECT_EQ(arch_to_xml(ArchInfo::smp_like(2)),
            "<architecture name=\"mpcoreish\" style=\"shared\">\n"
            "  <processor class=\"RISC\" freq=\"400000000\" "
            "scratchpad=\"32768\"/>\n"
            "  <processor class=\"RISC\" freq=\"400000000\" "
            "scratchpad=\"32768\"/>\n"
            "  <memory kind=\"shared\" bytes=\"1048576\" latency=\"12\"/>\n"
            "  <interconnect kind=\"bus\" freq=\"266000000\" width=\"8\"/>\n"
            "  <lock cycles=\"40\"/>\n"
            "</architecture>\n");
}

TEST(ArchFile, RoundTripsNamesWithXmlSpecialCharacters) {
  auto orig = ArchInfo::smp_like(4);
  orig.name = "smp \"quad\" & co <rev2>";
  const auto r = round_trip_arch_file(orig);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().name, orig.name);
  EXPECT_EQ(r.value().platform.cores.size(), 4u);
}

TEST(ArchFile, BuiltinTargetsAndTheirFilesValidate) {
  for (const ArchInfo& arch :
       {ArchInfo::cell_like(), ArchInfo::cell_like(1), ArchInfo::cell_like(15),
        ArchInfo::smp_like(), ArchInfo::smp_like(1), ArchInfo::smp_like(16)}) {
    EXPECT_TRUE(arch.platform.validate().ok()) << arch.name;
    const auto r = round_trip_arch_file(arch);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_TRUE(r.value().platform.validate().ok()) << arch.name;
  }
}

/// A two-core file around one <interconnect> element (on line 4).
std::string file_with_interconnect(const std::string& icn) {
  return "<architecture name=\"f\">\n"
         "  <processor class=\"RISC\" count=\"2\"/>\n"
         "  <memory kind=\"shared\" bytes=\"4096\"/>\n"
         "  " + icn + "\n"
         "</architecture>\n";
}

TEST(ArchFile, RejectsFabricDimensionsThatDoNotFit) {
  for (const char* icn : {
           R"(<interconnect kind="mesh" width="0"/>)",
           R"(<interconnect kind="mesh" height="0"/>)",
           R"(<interconnect kind="mesh" width="4294967296" height="1"/>)",
           R"(<interconnect kind="mesh" width="4294967297" height="1"/>)",
           R"(<interconnect kind="mesh" width="1" height="4294967296"/>)",
           R"(<interconnect kind="mesh" width="65536" height="65536"/>)",
           R"(<interconnect kind="mesh" width="257" height="256"/>)",
           R"(<interconnect kind="bus" width="0"/>)",
           R"(<interconnect kind="bus" width="4294967296"/>)",
       }) {
    const auto r = parse_arch_file(file_with_interconnect(icn));
    ASSERT_FALSE(r.ok()) << icn;
    EXPECT_EQ(r.error().line, 4) << icn << ": " << r.error().to_string();
  }
  EXPECT_TRUE(parse_arch_file(file_with_interconnect(
                  R"(<interconnect kind="mesh" width="256" height="256"/>)"))
                  .ok());
}

TEST(ArchFile, EveryAcceptedFabricTimesATransfer) {
  // Each of these files used to parse, and the first route then divided
  // by a zero fabric dimension.
  for (const char* icn : {
           R"(<interconnect kind="mesh" width="0"/>)",
           R"(<interconnect kind="mesh" width="65536" height="65536"/>)",
           R"(<interconnect kind="bus" width="0"/>)",
           R"(<interconnect kind="bus" width="4294967296"/>)",
           R"(<interconnect kind="mesh" width="2" height="1"/>)",
           R"(<interconnect kind="bus" width="16"/>)",
       }) {
    const auto r = parse_arch_file(file_with_interconnect(icn));
    if (!r.ok()) continue;
    const sim::PlatformConfig& pc = r.value().platform;
    EXPECT_GT(sim::nominal_latency(pc, sim::CoreId{0}, sim::CoreId{1}, 64),
              0u)
        << icn;
  }
}

TEST(Mapping, AutomaticCoversAllTasks) {
  const auto p = pipeline_program();
  const auto arch = ArchInfo::cell_like(4);
  const auto m = CicMapping::automatic(p, arch);
  ASSERT_TRUE(m.ok()) << m.error().to_string();
  EXPECT_EQ(m.value().task_to_pe.size(), p.tasks().size());
  for (const auto pe : m.value().task_to_pe)
    EXPECT_LT(pe, arch.platform.cores.size());
}

TEST(Translator, RejectsBadMapping) {
  const auto p = pipeline_program();
  const auto arch = ArchInfo::smp_like(2);
  CicMapping m;
  m.task_to_pe = {0, 1, 2, 0, 1};  // PE 2 does not exist
  EXPECT_FALSE(TargetProgram::translate(p, arch, m).ok());
  m.task_to_pe = {0, 1};  // wrong arity
  EXPECT_FALSE(TargetProgram::translate(p, arch, m).ok());
}

TEST(Translator, RunsOnSmp) {
  const auto p = pipeline_program();
  const auto arch = ArchInfo::smp_like(4);
  const auto m = CicMapping::automatic(p, arch);
  ASSERT_TRUE(m.ok());
  auto tp = TargetProgram::translate(p, arch, m.value());
  ASSERT_TRUE(tp.ok()) << tp.error().to_string();
  const auto r = tp.value().run(20);
  ASSERT_EQ(r.sink_outputs.count("cabac"), 1u);
  EXPECT_EQ(r.sink_outputs.at("cabac").size(), 20u);
  EXPECT_GT(r.makespan, 0u);
  EXPECT_GT(r.messages, 0u);
}

TEST(Translator, RetargetabilityContract) {
  // The core Sec. V claim: "From the same CIC specification, we also
  // generated a parallel program for an MPCore processor ... which
  // confirms the retargetability of the CIC model."
  const auto p = pipeline_program();

  const auto cell = ArchInfo::cell_like(6);
  const auto smp = ArchInfo::smp_like(4);
  const auto mc = CicMapping::automatic(p, cell);
  const auto ms = CicMapping::automatic(p, smp);
  ASSERT_TRUE(mc.ok());
  ASSERT_TRUE(ms.ok());

  auto tc = TargetProgram::translate(p, cell, mc.value());
  auto ts = TargetProgram::translate(p, smp, ms.value());
  ASSERT_TRUE(tc.ok());
  ASSERT_TRUE(ts.ok());

  const auto rc = tc.value().run(25);
  const auto rs = ts.value().run(25);

  // Identical computed results...
  EXPECT_EQ(rc.sink_outputs, rs.sink_outputs);
  // ...from genuinely different executions.
  EXPECT_NE(rc.makespan, rs.makespan);
}

TEST(Translator, DeterministicRuns) {
  const auto p = pipeline_program();
  const auto arch = ArchInfo::smp_like(4);
  const auto m = CicMapping::automatic(p, arch);
  ASSERT_TRUE(m.ok());
  auto tp = TargetProgram::translate(p, arch, m.value());
  ASSERT_TRUE(tp.ok());
  const auto a = tp.value().run(15);
  const auto b = tp.value().run(15);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sink_outputs, b.sink_outputs);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Translator, DeadlineAccounting) {
  CicProgram p("rt");
  const auto src = p.add_task("src", 1'000, {}, {"o"});
  p.set_period(src, microseconds(50));
  p.set_deadline(src, microseconds(49));
  const auto heavy = p.add_task("heavy", 500'000, {"i"}, {});
  EXPECT_TRUE(p.connect(src, "o", heavy, "i", 64, /*capacity=*/2).ok());
  const auto arch = ArchInfo::smp_like(1);  // single core: guaranteed jam
  CicMapping m;
  m.task_to_pe = {0, 0};
  auto tp = TargetProgram::translate(p, arch, m);
  ASSERT_TRUE(tp.ok());
  const auto r = tp.value().run(10);
  EXPECT_GT(r.deadline_misses, 0u);
}

TEST(Codegen, BackendsSynthesizeDifferentPrimitives) {
  const auto p = pipeline_program();
  const auto cell = ArchInfo::cell_like(4);
  const auto smp = ArchInfo::smp_like(4);
  auto tc = TargetProgram::translate(p, cell,
                                     CicMapping::automatic(p, cell).value());
  auto ts = TargetProgram::translate(p, smp,
                                     CicMapping::automatic(p, smp).value());
  ASSERT_TRUE(tc.ok());
  ASSERT_TRUE(ts.ok());
  const std::string code_c = tc.value().generated_code();
  const std::string code_s = ts.value().generated_code();

  EXPECT_NE(code_c.find("dma_send"), std::string::npos);
  EXPECT_NE(code_c.find("msgq_recv"), std::string::npos);
  EXPECT_EQ(code_c.find("shm_ring_push"), std::string::npos);

  EXPECT_NE(code_s.find("shm_ring_push"), std::string::npos);
  EXPECT_NE(code_s.find("lock(&"), std::string::npos);
  EXPECT_EQ(code_s.find("dma_send"), std::string::npos);
}

TEST(Codegen, RuntimeSystemSynthesizedFromAnnotations) {
  const auto p = pipeline_program();
  const auto smp = ArchInfo::smp_like(4);
  auto ts = TargetProgram::translate(p, smp,
                                     CicMapping::automatic(p, smp).value());
  ASSERT_TRUE(ts.ok());
  const std::string code = ts.value().generated_code();
  // camera is periodic -> periodic registration; others data-driven.
  EXPECT_NE(code.find("rt_register_periodic(task_camera"),
            std::string::npos);
  EXPECT_NE(code.find("rt_register_datadriven(task_me"), std::string::npos);
  // Every PE gets a main.
  for (std::size_t pe = 0; pe < 4; ++pe)
    EXPECT_NE(code.find(rw::strformat("pe%zu_main", pe)), std::string::npos);
}

}  // namespace
}  // namespace rw::cic
