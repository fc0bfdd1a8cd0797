// A designer-controlled recoding session (Figure 3 of the paper as
// running code): open a sequential C reference model, interactively apply
// transformations — loop split, vector split, variable localization,
// channel insertion, pointer recoding — and watch the source evolve while
// the interpreter proves every step preserved the program's meaning.
#include <cstdio>

#include "recoder/recoder.hpp"
#include "recoder/shared_report.hpp"

namespace {

const char* kReferenceModel = R"(
int input[16];
int stage[16];
int output[16];

int main() {
  int t;
  int *p = &input[0];
  for (int i = 0; i < 16; i = i + 1) {
    *(p + i) = i * 7 % 13;
  }
  for (int i = 0; i < 16; i = i + 1) {
    t = input[i] * 3;
    stage[i] = t + 1;
  }
  for (int i = 0; i < 16; i = i + 1) {
    output[i] = stage[i] * stage[i];
  }
  int checksum = 0;
  for (int i = 0; i < 16; i = i + 1) {
    checksum = checksum * 31 + output[i];
  }
  return checksum % 100000;
}
)";

void banner(const char* what) { std::printf("\n===== %s =====\n", what); }

}  // namespace

int main() {
  using namespace rw::recoder;

  auto session_r = RecoderSession::from_source(kReferenceModel);
  if (!session_r.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 session_r.error().to_string().c_str());
    return 1;
  }
  RecoderSession session = std::move(session_r).take();

  const auto reference = session.execute();
  std::printf("reference model result: %lld\n",
              static_cast<long long>(reference.value().return_value));

  // The "analyze shared data accesses" step: the recoder shows what each
  // array supports before the designer picks transformations.
  banner("shared-data access analysis");
  std::printf("%s",
              render_report(analyze_shared_accesses(
                                session.program(),
                                *session.program().find_function("main")))
                  .c_str());

  struct Step {
    const char* what;
    std::function<rw::Status()> run;
  };
  const std::vector<Step> steps{
      {"pointer recoding (*(p+i) -> input[i])",
       [&] { return session.cmd_pointer_to_index("main"); }},
      {"localize t into its loop",
       [&] { return session.cmd_localize("main", "t"); }},
      {"insert channel for stage[] (producer/consumer sync)",
       [&] { return session.cmd_insert_channel("main", "stage", 1); }},
      {"split the compute loop 4 ways (data parallelism)",
       [&] { return session.cmd_split_loop("main", 1, 4); }},
      {"split the fill loop 4 ways",
       [&] { return session.cmd_split_loop("main", 0, 4); }},
      {"split input[] to match the 4 partitions",
       [&] { return session.cmd_split_vector("main", "input", 4); }},
  };

  auto preserved = [&] {
    const auto check = session.execute();
    return check.ok() &&
           check.value().return_value == reference.value().return_value;
  };
  bool all_preserved = true;
  for (const auto& step : steps) {
    banner(step.what);
    const auto st = step.run();
    if (!st.ok()) {
      std::printf("REFUSED: %s\n", st.error().message.c_str());
      continue;
    }
    const bool same = preserved();
    all_preserved &= same;
    std::printf("ok — %zu source lines changed, semantics %s\n",
                session.journal().back().lines_changed,
                same ? "preserved" : "BROKEN");
  }

  banner("final parallel-shaped model");
  std::printf("%s", session.source().c_str());

  banner("session journal");
  for (const auto& e : session.journal()) {
    std::printf("  [%s] %-40s %s\n", e.ok ? "ok" : "--", e.command.c_str(),
                e.ok ? (std::to_string(e.lines_changed) + " lines").c_str()
                     : e.message.c_str());
  }
  std::printf(
      "\n%zu designer commands replaced %zu lines of manual editing\n",
      session.commands_applied(), session.total_lines_changed());

  // The designer types a change by hand (the Text Editor path of Fig. 3),
  // then takes it back and forth: undo restores the recoded model exactly,
  // redo the typed one.
  banner("direct text edit, undo, redo");
  const std::string recoded = session.source();
  std::string typed = recoded;
  typed.replace(typed.find("checksum * 31"), 13, "checksum * 37");
  const bool edited = session.cmd_edit_text(typed).ok();
  const auto edited_run = session.execute();
  std::printf("typed 'checksum * 37': result %lld (was %lld)\n",
              edited_run.ok() ? static_cast<long long>(
                                    edited_run.value().return_value)
                              : -1LL,
              static_cast<long long>(reference.value().return_value));
  const bool undone = session.undo() && session.source() == recoded &&
                      preserved();
  const bool redone = session.redo() && session.source() == typed;
  const bool back = session.undo() && session.source() == recoded;
  std::printf("undo restores the recoded model: %s; redo the typed one: "
              "%s\n",
              undone && back ? "yes" : "NO", redone ? "yes" : "NO");
  return all_preserved && edited && undone && redone && back ? 0 : 1;
}
