#include "cic/archfile.hpp"

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/xml.hpp"

namespace rw::cic {

const char* memory_style_name(MemoryStyle s) {
  switch (s) {
    case MemoryStyle::kDistributed: return "distributed";
    case MemoryStyle::kShared: return "shared";
  }
  return "?";
}

ArchInfo ArchInfo::cell_like(std::size_t spes) {
  ArchInfo a;
  a.name = "cellish";
  a.style = MemoryStyle::kDistributed;
  a.platform.cores.push_back(
      {sim::PeClass::kRisc, mhz(800), 64 * 1024});  // PPE-ish control core
  for (std::size_t i = 0; i < spes; ++i)
    a.platform.cores.push_back({sim::PeClass::kDsp, mhz(600), 256 * 1024});
  a.platform.shared_mem_bytes = 512 * 1024;
  a.platform.shared_mem_latency = 40;  // off-chip-ish
  a.platform.interconnect = sim::PlatformConfig::Icn::kMesh;
  a.platform.mesh.width = 4;
  a.platform.mesh.height = 2;
  return a;
}

ArchInfo ArchInfo::smp_like(std::size_t cores) {
  ArchInfo a;
  a.name = "mpcoreish";
  a.style = MemoryStyle::kShared;
  for (std::size_t i = 0; i < cores; ++i)
    a.platform.cores.push_back({sim::PeClass::kRisc, mhz(400), 32 * 1024});
  a.platform.shared_mem_bytes = 1024 * 1024;
  a.platform.shared_mem_latency = 12;  // coherent L2-ish
  a.platform.interconnect = sim::PlatformConfig::Icn::kSharedBus;
  a.platform.bus.frequency = mhz(266);
  a.platform.bus.width_bytes = 8;
  return a;
}

namespace {

/// A 32-bit attribute; a larger value is an error, not a silent wrap.
Result<std::uint32_t> attr_u32(const xml::Element& e, std::string_view name,
                               std::uint32_t fallback) {
  const std::uint64_t v = e.attr_u64(name, fallback);
  if (v > UINT32_MAX)
    return make_error("<" + e.name + "> " + std::string(name) + " " +
                          std::to_string(v) + " does not fit 32 bits",
                      e.line);
  return static_cast<std::uint32_t>(v);
}

}  // namespace

Result<ArchInfo> parse_arch_file(const std::string& xml_text) {
  const auto doc = RW_TRY(xml::parse(xml_text));
  const xml::Element& root = *doc;
  if (root.name != "architecture")
    return make_error("root element must be <architecture>", root.line);

  ArchInfo arch;
  arch.name = std::string(root.attr("name"));
  const auto style = root.attr("style");
  if (style == "shared") {
    arch.style = MemoryStyle::kShared;
  } else if (style == "distributed" || style.empty()) {
    arch.style = MemoryStyle::kDistributed;
  } else {
    return make_error("unknown style '" + std::string(style) + "'",
                      root.line);
  }

  for (const auto* proc : root.children_named("processor")) {
    const auto cls_name = proc->attr("class");
    sim::PeClass cls;
    if (cls_name == "RISC") {
      cls = sim::PeClass::kRisc;
    } else if (cls_name == "DSP") {
      cls = sim::PeClass::kDsp;
    } else if (cls_name == "VLIW") {
      cls = sim::PeClass::kVliw;
    } else if (cls_name == "ASIP") {
      cls = sim::PeClass::kAsip;
    } else if (cls_name == "ACCEL") {
      cls = sim::PeClass::kAccel;
    } else {
      return make_error("unknown processor class '" +
                        std::string(cls_name) + "'", proc->line);
    }
    const auto freq = proc->attr_u64("freq", mhz(400));
    const auto spm = proc->attr_u64("scratchpad", 64 * 1024);
    const auto count = proc->attr_u64("count", 1);
    if (count == 0 || count > 1024)
      return make_error("bad processor count", proc->line);
    for (std::uint64_t i = 0; i < count; ++i)
      arch.platform.cores.push_back({cls, freq, spm});
  }
  if (arch.platform.cores.empty())
    return make_error("architecture has no processors", root.line);

  if (const auto* mem = root.child("memory")) {
    arch.platform.shared_mem_bytes = mem->attr_u64("bytes", 1 << 20);
    arch.platform.shared_mem_latency = mem->attr_u64("latency", 12);
    if (const Status st = arch.platform.validate(); !st.ok())
      return make_error(st.error().message, mem->line);
  }
  if (const auto* icn = root.child("interconnect")) {
    const auto kind = icn->attr("kind");
    if (kind == "bus" || kind.empty()) {
      arch.platform.interconnect = sim::PlatformConfig::Icn::kSharedBus;
      arch.platform.bus.frequency = icn->attr_u64("freq", mhz(200));
      arch.platform.bus.width_bytes = RW_TRY(attr_u32(*icn, "width", 8));
    } else if (kind == "mesh") {
      arch.platform.interconnect = sim::PlatformConfig::Icn::kMesh;
      arch.platform.mesh.width = RW_TRY(attr_u32(*icn, "width", 4));
      arch.platform.mesh.height = RW_TRY(attr_u32(*icn, "height", 4));
      arch.platform.mesh.link_frequency = icn->attr_u64("freq", mhz(500));
    } else {
      return make_error("unknown interconnect kind '" + std::string(kind) +
                        "'", icn->line);
    }
    if (const Status st = arch.platform.validate(); !st.ok())
      return make_error(st.error().message, icn->line);
  }
  if (const auto* lock = root.child("lock")) {
    arch.lock_cycles = lock->attr_u64("cycles", 40);
  }
  return arch;
}

std::string arch_to_xml(const ArchInfo& arch) {
  using Attributes = std::vector<std::pair<std::string, std::string>>;
  auto element = [](std::string name, Attributes attributes) {
    auto e = std::make_unique<xml::Element>();
    e->name = std::move(name);
    e->attributes = std::move(attributes);
    return e;
  };
  auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  const auto root =
      element("architecture",
              {{"name", arch.name}, {"style", memory_style_name(arch.style)}});
  auto add = [&](std::string name, Attributes attributes) {
    root->children.push_back(element(std::move(name), std::move(attributes)));
  };
  for (const auto& c : arch.platform.cores)
    add("processor", {{"class", sim::pe_class_name(c.cls)},
                      {"freq", u64(c.frequency)},
                      {"scratchpad", u64(c.scratchpad_bytes)}});
  add("memory", {{"kind", "shared"},
                 {"bytes", u64(arch.platform.shared_mem_bytes)},
                 {"latency", u64(arch.platform.shared_mem_latency)}});
  if (arch.platform.interconnect == sim::PlatformConfig::Icn::kSharedBus) {
    add("interconnect", {{"kind", "bus"},
                         {"freq", u64(arch.platform.bus.frequency)},
                         {"width", u64(arch.platform.bus.width_bytes)}});
  } else {
    add("interconnect", {{"kind", "mesh"},
                         {"width", u64(arch.platform.mesh.width)},
                         {"height", u64(arch.platform.mesh.height)},
                         {"freq", u64(arch.platform.mesh.link_frequency)}});
  }
  add("lock", {{"cycles", u64(arch.lock_cycles)}});
  return xml::serialize(*root);
}

Result<ArchInfo> round_trip_arch_file(const ArchInfo& arch) {
  const std::string text = arch_to_xml(arch);
  auto parsed = parse_arch_file(text);
  if (!parsed.ok())
    return make_error("architecture file for '" + arch.name +
                      "' rejected: " + parsed.error().to_string());
  if (arch_to_xml(parsed.value()) != text)
    return make_error("architecture file for '" + arch.name +
                      "' does not round-trip");
  return parsed;
}

}  // namespace rw::cic
