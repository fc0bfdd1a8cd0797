// Mini-C interpreter.
//
// The recoder's transformations claim semantic preservation; this
// interpreter makes that claim testable — run the program before and
// after a transformation and compare results. Channel builtins
// (chan_send / chan_recv / chan_size) are modelled as named FIFOs so that
// programs produced by the channel-insertion transformation still execute
// sequentially with identical results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "recoder/ast.hpp"

namespace rw::recoder {

struct InterpResult {
  std::int64_t return_value = 0;
  /// Final contents of global variables (scalars have one element).
  std::map<std::string, std::vector<std::int64_t>> globals;
  std::uint64_t steps = 0;  // statements executed

  bool operator==(const InterpResult& o) const {
    return return_value == o.return_value && globals == o.globals;
  }
};

/// Run `entry` (default "main") with integer arguments. Fails on runtime
/// errors (OOB access, unknown identifiers, step-budget exhaustion). The
/// cells of all arrays alive at once may not exceed `max_steps` either.
Result<InterpResult> interpret(const Program& prog,
                               const std::string& entry = "main",
                               const std::vector<std::int64_t>& args = {},
                               std::uint64_t max_steps = 10'000'000);

}  // namespace rw::recoder
