// rwprof: run demo workloads on the virtual platform under a PerfSession,
// print the PMU counter table and sampled profile, and write deterministic
// exports (PERF_<name>.json, Chrome trace JSON, VCD waveform, folded
// stacks, CSV).
#include <iostream>
#include <string>
#include <vector>

#include "perf/driver.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto opts = rw::perf::parse_prof_args(args);
  if (!opts.ok()) {
    std::cerr << opts.error().to_string() << "\n";
    return 2;
  }
  return rw::perf::run_prof(opts.value(), std::cout).exit_code;
}
