// Architecture information file (Sec. V).
//
// "Information on the target architecture and the design constraints is
// separately described in an xml-style file, called the architecture
// information file." This parser turns such a file into a simulator
// platform configuration plus the memory-style switch the translator's
// back-end selection keys off.
//
// Example:
//   <architecture name="cellish" style="distributed">
//     <processor class="RISC" freq="400000000" count="1"/>
//     <processor class="DSP"  freq="300000000" count="6"/>
//     <memory kind="shared" bytes="1048576" latency="14"/>
//     <interconnect kind="bus" freq="200000000" width="16"/>
//   </architecture>
#pragma once

#include <string>

#include "common/result.hpp"
#include "sim/platform.hpp"

namespace rw::cic {

/// Which communication style the translator must synthesize.
enum class MemoryStyle : std::uint8_t {
  kDistributed,  // message passing over the interconnect (Cell-like)
  kShared,       // lock-protected shared-memory rings (MPCore-like)
};

const char* memory_style_name(MemoryStyle s);

struct ArchInfo {
  std::string name;
  MemoryStyle style = MemoryStyle::kDistributed;
  sim::PlatformConfig platform;
  Cycles lock_cycles = 40;  // cost of acquiring/releasing a lock (shared)

  /// Built-in reference targets for tests and examples.
  static ArchInfo cell_like(std::size_t spes = 6);
  static ArchInfo smp_like(std::size_t cores = 4);
};

/// Parse the XML text of an architecture information file.
Result<ArchInfo> parse_arch_file(const std::string& xml_text);

/// Render an ArchInfo as the XML text parse_arch_file reads back: the
/// same ArchInfo, and the same text when rendered again.
std::string arch_to_xml(const ArchInfo& arch);

/// Read a target back from its own architecture information file: render
/// it, parse the text, and require the parsed target to render to the
/// same text. The error names the target when either step fails.
Result<ArchInfo> round_trip_arch_file(const ArchInfo& arch);

}  // namespace rw::cic
