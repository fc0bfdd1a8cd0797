// E8 — Sec. VI: "about 90% of the system design time is spent on coding
// and re-coding of MPSoC models" and "our experimental results show a
// great reduction in modeling time and significant productivity gains up
// to two orders of magnitude over manual recoding."
//
// Methodology: drive full recoding sessions of increasing size through
// the transformation engine. Effort is counted in *editing operations*:
// the designer issues one command per transformation; doing the same by
// hand means touching every changed source line. The ratio
// (lines changed) / (commands issued) is the productivity gain, and every
// session is verified semantics-preserving by the interpreter.
#include <cstdio>
#include <functional>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "recoder/recoder.hpp"

namespace {

/// A reference model shaped like the paper's subjects: P parallel
/// producer/consumer array pipelines plus a pointer-walked init.
std::string reference_model(int pipelines, int width) {
  using rw::strformat;
  std::string s;
  for (int k = 0; k < pipelines; ++k) {
    s += strformat("int in%d[%d];\nint mid%d[%d];\n", k, width, k, width);
  }
  s += "int main() {\n  int t;\n";
  for (int k = 0; k < pipelines; ++k) {
    s += strformat(
        "  int *p%d = &in%d[0];\n"
        "  for (int i = 0; i < %d; i = i + 1) { *(p%d + i) = i * %d; }\n",
        k, k, width, k, k + 3);
  }
  for (int k = 0; k < pipelines; ++k) {
    s += strformat(
        "  for (int i = 0; i < %d; i = i + 1) {\n"
        "    t = in%d[i] * 3;\n"
        "    mid%d[i] = t + %d;\n"
        "  }\n",
        width, k, k, k);
  }
  s += "  int acc = 0;\n";
  for (int k = 0; k < pipelines; ++k) {
    s += strformat(
        "  for (int i = 0; i < %d; i = i + 1) { acc = acc * 17 + "
        "mid%d[i]; }\n",
        width, k);
  }
  s += "  return acc % 1000000;\n}\n";
  return s;
}

/// Phase 2's model: loops to fuse, distribute and unroll, a literal
/// condition to prune, a variable to rename and a loop to outline.
const char* kRestructuringModel = R"(
int a[8];
int b[8];
int c[8];
int main() {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { a[i] = i * 5; }
  for (int i = 0; i < 8; i = i + 1) { b[i] = a[i] + 1; }
  for (int i = 0; i < 8; i = i + 1) { c[i] = b[i] * 2; a[i] = c[i] - 3; }
  if (1) { s = s + 7; } else { s = s - 7; }
  for (int k = 0; k < 4; k = k + 1) { s = s + c[k] * a[k]; }
  return s;
}
)";

}  // namespace

int main() {
  using namespace rw;
  using namespace rw::recoder;

  std::printf("E8: designer-controlled recoding productivity\n");
  bool all_preserved = true;
  Table t({"model size", "commands", "lines changed", "gain (lines/cmd)",
           "semantics"});

  for (const int pipelines : {1, 2, 4, 8, 16}) {
    const std::string src = reference_model(pipelines, 32);
    auto sr = RecoderSession::from_source(src);
    if (!sr.ok()) {
      std::fprintf(stderr, "parse: %s\n", sr.error().to_string().c_str());
      return 1;
    }
    RecoderSession s = std::move(sr).take();
    const auto ref = s.execute();

    // The session: recode every pipeline for parallelism. Loops are split
    // back-to-front so earlier loop indices stay stable.
    bool ok = true;
    ok &= s.cmd_pointer_to_index("main").ok();
    ok &= s.cmd_localize("main", "t").ok();
    for (int k = 0; k < pipelines; ++k)
      ok &= s.cmd_insert_channel("main", "mid" + std::to_string(k),
                                 k + 1).ok();
    // Top-level loops are now: fill 0..P-1, compute P..2P-1, acc 2P..3P-1.
    for (int k = pipelines - 1; k >= 0; --k)
      ok &= s.cmd_split_loop("main",
                             static_cast<std::size_t>(pipelines + k), 4)
                .ok();
    for (int k = pipelines - 1; k >= 0; --k)
      ok &= s.cmd_split_loop("main", static_cast<std::size_t>(k), 4).ok();
    for (int k = 0; k < pipelines; ++k)
      ok &= s.cmd_split_vector("main", "in" + std::to_string(k), 4).ok();
    if (!ok) {
      // Surface the journal for debugging but keep going: partial
      // sessions still measure productivity honestly.
      for (const auto& e : s.journal())
        if (!e.ok) std::printf("  [refused] %s: %s\n", e.command.c_str(),
                               e.message.c_str());
    }

    const auto after = s.execute();
    const bool preserved = after.ok() && ref.ok() &&
                           after.value().return_value ==
                               ref.value().return_value;
    all_preserved &= preserved;
    const double gain =
        s.commands_applied() == 0
            ? 0.0
            : static_cast<double>(s.total_lines_changed()) /
                  static_cast<double>(s.commands_applied());
    t.add_row({strformat("%d pipelines", pipelines),
               Table::num(static_cast<std::uint64_t>(s.commands_applied())),
               Table::num(static_cast<std::uint64_t>(
                   s.total_lines_changed())),
               Table::num(gain, 1) + "x",
               preserved ? "preserved" : "BROKEN"});
  }
  t.print("recoding sessions of growing size");

  std::printf("expected shape: the per-command gain is roughly constant "
              "(each command edits\nmany lines), so total manual-edit "
              "volume grows linearly with model size while\ndesigner "
              "effort grows only with the number of *decisions* — the "
              "source of the\npaper's order-of-magnitude productivity "
              "claim. Every row must say 'preserved'.\n");

  // Phase 2: the restructuring transformations, one command each, every
  // one checked against the reference run (return value and globals).
  auto sr = RecoderSession::from_source(kRestructuringModel);
  if (!sr.ok()) {
    std::fprintf(stderr, "parse: %s\n", sr.error().to_string().c_str());
    return 1;
  }
  RecoderSession s = std::move(sr).take();
  const auto ref = s.execute();
  if (!ref.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref.error().to_string().c_str());
    return 1;
  }
  const std::vector<std::function<Status()>> commands{
      [&] { return s.cmd_fuse_loops("main", 0); },
      [&] { return s.cmd_distribute_loop("main", 1); },
      [&] { return s.cmd_prune_control("main"); },
      [&] { return s.cmd_unroll_loop("main", 3); },
      [&] { return s.cmd_rename("main", "s", "sum"); },
      [&] { return s.cmd_outline("main", 1, 2, "produce"); },
  };
  Table r({"command", "lines changed", "semantics"});
  for (const auto& command : commands) {
    const Status st = command();
    const auto& entry = s.journal().back();
    const auto after = s.execute();
    const bool preserved =
        st.ok() && after.ok() && after.value() == ref.value();
    all_preserved &= preserved;
    r.add_row({entry.command,
               Table::num(static_cast<std::uint64_t>(entry.lines_changed)),
               !st.ok() ? "REFUSED: " + entry.message
                        : preserved ? "preserved" : "BROKEN"});
  }
  r.print("restructuring transformations, checked by the interpreter");
  std::printf("expected shape: every restructuring command applies and "
              "says 'preserved'.\n");
  return all_preserved ? 0 : 1;
}
