// Sec. III's car-radio streaming scenario: a CSDF filter chain driven by
// a periodic source and sink, executed both time-triggered and
// data-driven while execution times occasionally blow past their
// (deliberately unreliable) WCET estimates. The throughput analysis checks
// the chain can keep up with the sample rate, and buffer capacities come
// from the back-pressure analysis.
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "dataflow/buffers.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/throughput.hpp"

int main() {
  using namespace rw;
  using namespace rw::dataflow;

  // The application: ADC -> channel decoder -> FIR -> audio post -> DAC.
  Graph g;
  const auto adc = g.add_actor("adc", 800, 0);
  const auto dec = g.add_actor("decoder", 22'000, 1);
  const auto fir = g.add_actor("fir", 18'000, 2);
  const auto post = g.add_actor("post", 9'000, 3);
  const auto dac = g.add_actor("dac", 800, 0);
  g.connect(adc, dec, 1, 1);
  g.connect(dec, fir, 1, 1);
  g.connect(fir, post, 1, 1);
  g.connect(post, dac, 1, 1);

  ExecConfig cfg;
  cfg.frequency = mhz(400);
  cfg.num_cores = 4;
  cfg.source_period = microseconds(100);  // 10 kHz sample rate
  cfg.iterations = 500;

  // Design time: the fastest rate the chain sustains on these cores must
  // cover the sample rate; then prove a wait-free schedule exists and size
  // the buffers.
  const auto rate = analyze_throughput(g, cfg);
  std::printf("max sustainable rate: %.0f Hz (period %s); bottleneck: %s "
              "on core %zu at %.0f%% load\n",
              rate.max_iterations_per_sec,
              format_time(rate.min_period).c_str(),
              rate.bottleneck_actor.c_str(), rate.bottleneck_core,
              rate.bottleneck_core_load * 100.0);
  if (rate.min_period == 0 || rate.min_period > cfg.source_period) {
    std::fprintf(stderr, "the chain cannot sustain the sample rate\n");
    return 1;
  }
  const auto sizing = compute_buffer_capacities(g, cfg);
  std::printf("buffer sizing (back-pressure analysis): wait-free=%s, "
              "capacities:", sizing.wait_free ? "yes" : "NO");
  for (const auto c : sizing.capacities) std::printf(" %zu", c);
  std::printf(" (%d rounds)\n\n", sizing.rounds);
  cfg.buffer_capacities = sizing.capacities;

  // Run both disciplines under increasing WCET-overrun probability.
  Table t({"overrun prob", "TT corruptions", "TT throughput", "DD corruptions",
           "DD src drops", "DD sink underruns", "DD throughput"});
  for (const double prob : {0.0, 0.1, 0.3, 0.5}) {
    auto make_acet = [prob](std::uint64_t seed) -> ActorAcet {
      auto rng = std::make_shared<Rng>(seed);
      return [rng, prob](const Actor& a, std::uint64_t, Cycles wcet) {
        if (a.name == "adc" || a.name == "dac") return wcet;
        return rng->next_bool(prob) ? wcet * 3 : wcet;
      };
    };
    ExecConfig tt_cfg = cfg;
    tt_cfg.acet = make_acet(42);
    const auto tt = run_time_triggered(g, tt_cfg);
    ExecConfig dd_cfg = cfg;
    dd_cfg.acet = make_acet(42);
    const auto dd = run_data_driven(g, dd_cfg);

    t.add_row({Table::percent(prob, 0), Table::num(tt.internal_corruptions()),
               Table::num(tt.sink_throughput_hz(), 0) + " Hz",
               Table::num(dd.internal_corruptions()),
               Table::num(dd.source_drops), Table::num(dd.sink_underruns),
               Table::num(dd.sink_throughput_hz(), 0) + " Hz"});
  }
  t.print("time-triggered vs data-driven under WCET overruns");

  std::printf("Note the Sec. III shape: the time-triggered executor "
              "corrupts data inside the\ngraph as soon as WCETs lie, while "
              "the data-driven one never does — overload\nsurfaces only "
              "as drops/underruns at the periodic boundary.\n");
  return 0;
}
