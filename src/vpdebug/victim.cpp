#include "vpdebug/victim.hpp"

#include <cstring>

#include "common/rng.hpp"
#include "sim/process.hpp"

namespace rw::vpdebug {
namespace {

constexpr Cycles kWorkCycles = 300;          // between RMW accesses
constexpr Cycles kRmwGapCycles = 60;         // read->write: the race window
constexpr std::uint64_t kJitterCycles = 40;  // per-iteration random jitter

sim::Process incrementer(sim::Platform& p, std::size_t core_idx,
                         const RacyCounterConfig cfg, sim::Addr counter,
                         std::uint64_t seed) {
  auto& core = p.core(core_idx);
  auto& kernel = p.kernel();
  auto& mem = p.memory();
  auto& sem = p.hwsem();
  const auto cid = sim::CoreId{static_cast<std::uint32_t>(core_idx)};
  Rng rng(seed);

  for (std::uint64_t i = 0; i < cfg.increments_per_core; ++i) {
    // Think time with jitter: interleavings vary with the seed.
    const Cycles think =
        kWorkCycles + rng.next_below(kJitterCycles + 1);
    co_await core.compute(think, "think");

    // Intrusive probe: a single-core debug stall right before the access.
    if (cfg.probe_stall_ps > 0 && core_idx == 0)
      co_await sim::delay(kernel, cfg.probe_stall_ps);

    if (cfg.use_semaphore) {
      // The fixed version: spin on hardware semaphore cell 0.
      while (!sem.try_acquire(0, cid))
        co_await core.compute(20, "spin");
    }

    // The racy read-modify-write: read, compute, write later.
    const std::uint64_t v = mem.read_u64(cid, counter);
    co_await core.compute(kRmwGapCycles, "rmw");
    mem.write_u64(cid, counter, v + 1);

    if (cfg.use_semaphore) sem.release(0, cid);
  }
}

}  // namespace

sim::Addr racy_counter_addr(const sim::Platform& platform) {
  return platform.shared_base();  // counter lives at the base of shared mem
}

RacyCounterResult run_racy_counter(sim::Platform& platform,
                                   const RacyCounterConfig& cfg) {
  const sim::Addr counter = racy_counter_addr(platform);
  {
    const std::uint8_t zero[8] = {};
    platform.memory().poke(counter, zero);
  }
  sim::spawn(platform.kernel(),
             incrementer(platform, 0, cfg, counter, cfg.seed * 2 + 1));
  sim::spawn(platform.kernel(),
             incrementer(platform, 1, cfg, counter, cfg.seed * 2 + 2));
  platform.kernel().run();

  RacyCounterResult res;
  res.expected = 2 * cfg.increments_per_core;
  std::uint8_t buf[8] = {};
  platform.memory().peek(counter, buf);
  std::memcpy(&res.observed, buf, 8);
  return res;
}

namespace {

sim::Process masked_waiter(sim::Platform& p, MaskedIrqResult& out,
                           DurationPs run_for) {
  auto& kernel = p.kernel();
  auto& core = p.core(0);

  // The firmware bug: the timer IRQ is masked *before* the wait loop.
  p.irqc().set_masked(sim::kIrqTimer, true);
  p.irqc().set_handler(sim::kIrqTimer, [&](std::size_t line) {
    out.handler_ran = true;
    p.irqc().ack(line);
  });
  p.timer().start_oneshot(microseconds(50));

  // Poll the flag the handler would set; give up at the horizon.
  while (kernel.now() < run_for && !out.handler_ran)
    co_await core.compute(2'000, "poll_flag");

  // What only a virtual platform shows: the line is pending on the wire.
  out.irq_line_high = p.irqc().line_signal(sim::kIrqTimer).level();
}

}  // namespace

MaskedIrqResult run_masked_irq_bug(sim::Platform& platform,
                                   DurationPs run_for) {
  MaskedIrqResult out;
  sim::spawn(platform.kernel(), masked_waiter(platform, out, run_for));
  platform.kernel().run();
  return out;
}

}  // namespace rw::vpdebug
