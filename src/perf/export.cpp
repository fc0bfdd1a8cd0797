#include "perf/export.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "perf/session.hpp"

namespace rw::perf {

namespace {

__extension__ typedef unsigned __int128 U128;

constexpr std::uint64_t kTenTo16 = 10'000'000'000'000'000;

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

// 10^0 .. 10^20.
constexpr auto kPow10 = [] {
  std::array<U128, 21> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

// %.17g of a double `v` in [1e-5, 1e9), without printf or to_chars: the
// 17 leading digits are round(m * 10^k / 2^s) for v = m * 2^-s, taken
// exactly in 128 bits. `x` is v's decimal exponent (v in [10^x, 10^(x+1)))
// or one more than it. Returns false, writing nothing, when %.17g would
// use the exponent form (v < 1e-4).
bool append_17_digits(std::string& out, double v, int x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int s = 1075 - static_cast<int>(bits >> 52);  // in [22, 70]
  // m * 10^k < 2^53 * 10^21 < 2^123 for every k used.
  U128 p = static_cast<U128>(m) * kPow10[static_cast<std::size_t>(16 - x)];
  if ((p >> s) < kTenTo16) {  // x overstated the exponent
    --x;
    p *= 10;
  }
  if (x < -4) return false;
  // Round half to even, as printf does on an exact tie.
  std::uint64_t q = static_cast<std::uint64_t>(p >> s);
  const U128 rest = p & ((U128{1} << s) - 1);
  const U128 half = U128{1} << (s - 1);
  if (rest > half || (rest == half && (q & 1) != 0)) ++q;
  if (q == 10 * kTenTo16) {  // rounded up to the next power of ten
    q = kTenTo16;
    ++x;
  }
  // Two digits per step, the leading nine and the last eight apart.
  char d[17];
  std::uint64_t hi = q / 100'000'000;
  std::uint64_t lo = q % 100'000'000;
  for (int i = 7; i >= 1; i -= 2, hi /= 100, lo /= 100) {
    std::memcpy(d + i, kDigitPairs + 2 * (hi % 100), 2);
    std::memcpy(d + 8 + i, kDigitPairs + 2 * (lo % 100), 2);
  }
  d[0] = static_cast<char>('0' + hi);
  int len = 17;
  while (d[len - 1] == '0') --len;
  char buf[24];  // "0.000" and 17 digits at most
  char* o = buf;
  const auto put = [&o](const char* from, int n) {
    std::memcpy(o, from, static_cast<std::size_t>(n));
    o += n;
  };
  if (x >= 0) {
    const int whole = x + 1;
    put(d, whole);
    if (len > whole) {
      *o++ = '.';
      put(d + whole, len - whole);
    }
  } else {
    put("0.000", 1 - x);
    put(d, len);
  }
  out.append(buf, o);
  return true;
}

// The number of decimal digits of v > 0.
int decimal_digits(TimePs v) {
  // 1233 / 4096 ~ log10(2), so t is the digit count or one less.
  const int t = static_cast<int>(std::bit_width(v)) * 1233 >> 12;
  return t + 1 - (v < static_cast<TimePs>(kPow10[static_cast<std::size_t>(t)]));
}

}  // namespace

void append_ps_as_us(std::string& out, TimePs ps) {
  constexpr TimePs kPsPerUs = 1'000'000;
  constexpr TimePs kFifteenDigits = 1'000'000'000'000'000;
  if (ps == 0 || (ps >= 100 && ps < kFifteenDigits)) {
    const double d = static_cast<double>(ps);  // exact below 2^53
    const double us = d * 1e-6;
    // ps/1e6 has at most 15 significant digits and, from 100 ps, %g
    // writes it without an exponent. When the product is the correctly
    // rounded quotient, those digits are %.15g of it and read back, so
    // they go in straight from the integer.
    if (d / 1e6 == us) {
      append_chars(out, ps / kPsPerUs);
      TimePs frac = ps % kPsPerUs;
      if (frac == 0) return;
      char buf[7] = {'.'};
      for (std::size_t i = 6; i > 0; --i, frac /= 10)
        buf[i] = static_cast<char>('0' + frac % 10);
      std::size_t len = 7;
      while (buf[len - 1] == '0') --len;
      out.append(buf, len);
      return;
    }
    // Off by an ulp from the quotient: %.15g would read back as the
    // quotient, so the Writer takes its 17-digit path. The decimal
    // exponent of us is that of ps / 1e6, or one less when the product
    // rounded below a power of ten.
    if (!append_17_digits(out, us, decimal_digits(ps) - 7))
      append_chars(out, us, std::chars_format::general, 17);
    return;
  }
  // 1-99 ps (exponent form) and 16 digits or more: the Writer's full rule.
  json::Writer w(/*pretty=*/false);
  w.value(static_cast<double>(ps) * 1e-6);
  out += w.str();
}

std::string to_chrome_trace(const std::vector<sim::TraceEvent>& trace) {
  std::string out = R"({"displayTimeUnit":"ns","traceEvents":[)";
  // One "X" complete event per paired ComputeEnd, in trace order.
  const std::vector<std::size_t> partner = sim::pair_records(trace);
  bool first = true;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const sim::TraceEvent& ev = trace[i];
    if (ev.kind != sim::TraceKind::kComputeEnd ||
        partner[i] == sim::kNoPartner)
      continue;
    const TimePs start = trace[partner[i]].time;
    out += first ? R"({"name":")" : R"(,{"name":")";
    first = false;
    json::append_escaped(out, ev.label);
    out += R"(","cat":"compute","ph":"X","ts":)";
    append_ps_as_us(out, start);
    out += R"(,"dur":)";
    append_ps_as_us(out, ev.time - start);
    out += R"(,"pid":0,"tid":)";
    append_chars(out, static_cast<std::uint64_t>(ev.core.index()));
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string to_folded_stacks(const SamplingProfiler::Profile& profile) {
  std::string out;
  for (const auto& e : profile.entries) {
    out += "core";
    append_chars(out, e.core);
    out += ';';
    out += e.label;
    out += ' ';
    append_chars(out, e.samples);
    out += '\n';
  }
  return out;
}

std::string to_csv(const std::vector<Epoch>& epochs, std::size_t num_cores) {
  std::string out =
      "epoch,start_ps,end_ps,mean_util,busy_cycles,stall_cycles,mem_reads,"
      "mem_writes,local_accesses,shared_accesses,icn_transfers,icn_bytes,"
      "icn_wait_ps,icn_busy_ps,dma_bytes";
  for (std::size_t c = 0; c < num_cores; ++c) {
    out += ",core";
    append_chars(out, c);
    out += "_util";
  }
  out += '\n';
  // Each field as printf's %llu / %.6f would write it: to_chars with
  // chars_format::fixed and precision 6 is specified to match "%.6f".
  const auto field = [&out](std::uint64_t v) {
    out += ',';
    append_chars(out, v);
  };
  const auto util = [&out](double u) {
    out += ',';
    append_chars(out, u, std::chars_format::fixed, 6);
  };
  for (const auto& ep : epochs) {
    CoreCounters t;
    for (const auto& c : ep.cores) {
      t.busy_cycles += c.busy_cycles;
      t.stall_cycles += c.stall_cycles;
      t.mem_reads += c.mem_reads;
      t.mem_writes += c.mem_writes;
      t.local_accesses += c.local_accesses;
      t.shared_accesses += c.shared_accesses;
    }
    t.mem_reads += ep.unattributed.mem_reads;
    t.mem_writes += ep.unattributed.mem_writes;
    append_chars(out, ep.index);
    field(ep.start);
    field(ep.end);
    util(ep.mean_utilization());
    for (const std::uint64_t v :
         {t.busy_cycles, t.stall_cycles, t.mem_reads, t.mem_writes,
          t.local_accesses, t.shared_accesses, ep.icn.transfers, ep.icn.bytes,
          ep.icn.wait_ps, ep.icn.busy_ps, ep.dma.bytes})
      field(v);
    for (std::size_t c = 0; c < num_cores; ++c)
      util(c < ep.cores.size() && ep.width() > 0
               ? static_cast<double>(ep.cores[c].busy_ps) /
                     static_cast<double>(ep.width())
               : 0.0);
    out += '\n';
  }
  return out;
}

namespace {
void write_core_counters(json::Writer& w, const CoreCounters& c) {
  w.begin_object();
  w.key("busy_cycles").value(c.busy_cycles);
  w.key("stall_cycles").value(c.stall_cycles);
  w.key("instructions").value(c.approx_instructions());
  w.key("busy_ps").value(c.busy_ps);
  w.key("reservations").value(c.reservations);
  w.key("compute_blocks").value(c.compute_blocks);
  w.key("mem_reads").value(c.mem_reads);
  w.key("mem_writes").value(c.mem_writes);
  w.key("local_accesses").value(c.local_accesses);
  w.key("shared_accesses").value(c.shared_accesses);
  w.key("bytes_read").value(c.bytes_read);
  w.key("bytes_written").value(c.bytes_written);
  w.key("freq_changes").value(c.freq_changes);
  w.end_object();
}
}  // namespace

void write_report(json::Writer& w, const PerfReport& r) {
  w.begin_object();
  w.key("makespan_ps").value(r.makespan);
  w.key("num_cores").value(static_cast<std::uint64_t>(r.num_cores));
  w.key("mean_utilization").value(r.mean_utilization());

  w.key("cores").begin_array();
  for (const auto& c : r.pmu.cores) write_core_counters(w, c);
  w.end_array();
  w.key("unattributed");
  write_core_counters(w, r.pmu.unattributed);

  w.key("icn").begin_object();
  w.key("transfers").value(r.pmu.icn.transfers);
  w.key("bytes").value(r.pmu.icn.bytes);
  w.key("wait_ps").value(r.pmu.icn.wait_ps);
  w.key("busy_ps").value(r.pmu.icn.busy_ps);
  w.key("hops").value(r.pmu.icn.hops);
  w.key("link_busy_ps").begin_array();
  for (const auto b : r.pmu.icn.link_busy_ps) w.value(b);
  w.end_array();
  w.end_object();

  w.key("dma").begin_object();
  w.key("transfers").value(r.pmu.dma.transfers);
  w.key("bytes").value(r.pmu.dma.bytes);
  w.key("busy_ps").value(r.pmu.dma.busy_ps);
  w.end_object();

  w.key("profile").begin_object();
  w.key("period_ps").value(r.profiler_period);
  w.key("ticks").value(r.profiler_ticks);
  w.key("total_samples").value(r.profile.total_samples);
  w.key("busy_samples").value(r.profile.busy_samples);
  w.key("idle_samples").value(r.profile.idle_samples);
  w.key("entries").begin_array();
  for (const auto& e : r.profile.entries) {
    w.begin_object();
    w.key("core").value(static_cast<std::uint64_t>(e.core));
    w.key("label").value(e.label);
    w.key("samples").value(e.samples);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("epochs").begin_array();
  for (const auto& ep : r.epochs) {
    w.begin_object();
    w.key("start_ps").value(ep.start);
    w.key("end_ps").value(ep.end);
    w.key("mean_util").value(ep.mean_utilization());
    w.key("icn_bytes").value(ep.icn.bytes);
    w.key("dma_bytes").value(ep.dma.bytes);
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

std::string to_json(const PerfReport& r) {
  json::Writer w;
  write_report(w, r);
  return w.str() + "\n";
}

}  // namespace rw::perf
