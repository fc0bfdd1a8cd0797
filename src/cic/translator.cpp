#include "cic/translator.hpp"

#include <memory>

#include "common/strings.hpp"
#include "maps/mapping.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"

namespace rw::cic {

namespace {

/// Mirror the CIC structure as a maps task graph plus PE list.
Result<std::pair<maps::TaskGraph, std::vector<maps::PeDesc>>>
to_mapping_problem(const CicProgram& prog, const ArchInfo& arch) {
  if (auto s = prog.validate(); !s.ok()) return s.error();
  maps::TaskGraph g;
  for (const auto& t : prog.tasks()) {
    const auto id = g.add_task(t.name, t.wcet);
    if (t.preferred_pe) g.task(id).preferred_pe = t.preferred_pe;
  }
  for (const auto& c : prog.channels())
    g.add_edge(maps::TaskNodeId{c.src.value()},
               maps::TaskNodeId{c.dst.value()}, c.token_bytes);
  if (!g.is_acyclic())
    return make_error("automatic mapping requires an acyclic CIC graph");
  std::vector<maps::PeDesc> pes;
  for (const auto& c : arch.platform.cores)
    pes.push_back({c.cls, c.frequency});
  return std::make_pair(std::move(g), std::move(pes));
}

}  // namespace

Result<CicMapping> CicMapping::automatic(const CicProgram& prog,
                                         const ArchInfo& arch) {
  auto problem = to_mapping_problem(prog, arch);
  if (!problem.ok()) return problem.error();
  const auto& [g, pes] = problem.value();
  const auto m = maps::heft_map(
      g, pes, maps::simple_comm_cost(nanoseconds(200), 0.002));
  CicMapping out;
  out.task_to_pe = m.task_to_pe;
  return out;
}

Result<CicMapping> CicMapping::optimized(const CicProgram& prog,
                                         const ArchInfo& arch,
                                         std::uint64_t seed,
                                         int iterations) {
  auto problem = to_mapping_problem(prog, arch);
  if (!problem.ok()) return problem.error();
  const auto& [g, pes] = problem.value();
  const auto m = maps::anneal_map(
      g, pes, maps::simple_comm_cost(nanoseconds(200), 0.002), seed,
      iterations);
  CicMapping out;
  out.task_to_pe = m.task_to_pe;
  return out;
}

Result<TargetProgram> TargetProgram::translate(CicProgram prog,
                                               ArchInfo arch,
                                               CicMapping mapping) {
  if (auto s = prog.validate(); !s.ok()) return s.error();
  if (mapping.task_to_pe.size() != prog.tasks().size())
    return make_error("mapping size != task count");
  for (const std::size_t pe : mapping.task_to_pe)
    if (pe >= arch.platform.cores.size())
      return make_error("mapping references PE " + std::to_string(pe) +
                        " but the architecture has only " +
                        std::to_string(arch.platform.cores.size()));
  return TargetProgram(std::move(prog), std::move(arch),
                       std::move(mapping));
}

namespace {

/// Digest recorded by sink tasks: must be target-independent.
Token sink_digest(std::uint32_t task_id, std::uint64_t iter,
                  const std::vector<Token>& inputs) {
  Token acc = static_cast<Token>(task_id) * 2654435761LL +
              static_cast<Token>(iter);
  for (const Token v : inputs) acc = acc * 33 + v;
  return acc;
}

struct RunCtx {
  const CicProgram& prog;
  const ArchInfo& arch;
  const CicMapping& mapping;
  sim::Platform& platform;
  std::vector<std::unique_ptr<sim::Channel<Token>>> channels;
  std::uint64_t iterations;
  TargetProgram::RunResult* result;
  std::vector<std::uint64_t> completed_iterations;
};

sim::Process task_process(RunCtx& ctx, std::size_t ti) {
  const CicTask& task = ctx.prog.tasks()[ti];
  const std::size_t pe = ctx.mapping.task_to_pe[ti];
  auto& core = ctx.platform.core(pe);
  auto& kernel = ctx.platform.kernel();
  const auto in_chans = ctx.prog.inputs_of(task.id);
  const auto out_chans = ctx.prog.outputs_of(task.id);
  const bool is_sink = out_chans.empty();
  const std::string recv_label = task.name + ".recv";
  const std::string send_label = task.name + ".send";

  for (std::uint64_t iter = 0; iter < ctx.iterations; ++iter) {
    // Run-time system: periodic tasks wait for their release.
    if (task.period > 0) {
      const TimePs due = iter * task.period;
      if (kernel.now() < due) co_await sim::delay(kernel, due - kernel.now());
    }

    // Receive one token per input port, paying the read-side cost.
    std::vector<Token> inputs;
    inputs.reserve(in_chans.size());
    for (const CicChannel* ch : in_chans) {
      const Token v = co_await ctx.channels[ch->id.index()]->recv();
      if (ctx.arch.style == MemoryStyle::kShared) {
        // Lock + coherent read from shared memory.
        const Cycles read_cost =
            ctx.arch.lock_cycles +
            ctx.arch.platform.shared_mem_latency *
                ((ch->token_bytes + 7) / 8);
        co_await core.compute(read_cost, recv_label);
      }
      inputs.push_back(v);
    }

    // The task body.
    co_await core.compute(task.wcet, task.name);
    const std::vector<Token> outputs = task.behavior(inputs, iter);

    // Send one token per output port, paying the write-side cost.
    for (std::size_t p = 0; p < out_chans.size(); ++p) {
      const CicChannel* ch = out_chans[p];
      const Token v = p < outputs.size() ? outputs[p] : 0;
      if (ctx.arch.style == MemoryStyle::kDistributed) {
        // DMA transfer across the interconnect to the consumer's PE.
        const auto dst_pe = ctx.mapping.task_to_pe[ch->dst.index()];
        const auto [s, f] = ctx.platform.interconnect().reserve_transfer(
            sim::CoreId{static_cast<std::uint32_t>(pe)},
            sim::CoreId{static_cast<std::uint32_t>(dst_pe)},
            ch->token_bytes, kernel.now());
        if (f > kernel.now())
          co_await sim::delay(kernel, f - kernel.now());
      } else {
        const Cycles write_cost =
            ctx.arch.lock_cycles +
            ctx.arch.platform.shared_mem_latency *
                ((ch->token_bytes + 7) / 8);
        co_await core.compute(write_cost, send_label);
      }
      co_await ctx.channels[ch->id.index()]->send(v);
      ++ctx.result->messages;
      ctx.result->bytes_moved += ch->token_bytes;
    }

    if (is_sink)
      ctx.result->sink_outputs[task.name].push_back(
          sink_digest(task.id.value(), iter, inputs));

    // Deadline accounting for annotated periodic tasks.
    if (task.period > 0 && task.deadline > 0) {
      const TimePs due = iter * task.period + task.deadline;
      if (kernel.now() > due) ++ctx.result->deadline_misses;
    }
    ++ctx.completed_iterations[ti];
  }
}

}  // namespace

TargetProgram::RunResult TargetProgram::run(std::uint64_t iterations) const {
  RunResult result;
  sim::Platform platform(arch_.platform);

  RunCtx ctx{prog_, arch_, mapping_, platform, {}, iterations, &result, {}};
  ctx.completed_iterations.assign(prog_.tasks().size(), 0);
  for (const auto& c : prog_.channels())
    ctx.channels.push_back(std::make_unique<sim::Channel<Token>>(
        platform.kernel(), c.capacity, c.name));

  for (std::size_t t = 0; t < prog_.tasks().size(); ++t)
    sim::spawn(platform.kernel(), task_process(ctx, t));

  platform.kernel().run(/*max_events=*/iterations * 1'000'000 + 1'000'000);

  result.makespan = platform.kernel().now();
  // The kernel drained: any task short of its quota is blocked forever on
  // a channel — a deadlock (typically a channel cycle with the wrong
  // capacities, or a starved input).
  for (std::size_t t = 0; t < prog_.tasks().size(); ++t) {
    if (ctx.completed_iterations[t] < iterations) {
      result.deadlocked = true;
      result.blocked_tasks.push_back(prog_.tasks()[t].name);
    }
  }
  double util = 0;
  for (std::size_t c = 0; c < platform.core_count(); ++c)
    util += platform.core(c).utilization(result.makespan);
  result.mean_core_utilization =
      platform.core_count() ? util / static_cast<double>(platform.core_count())
                            : 0;
  return result;
}

std::string TargetProgram::generated_code() const {
  const bool shared = arch_.style == MemoryStyle::kShared;
  std::string s;
  s += strformat(
      "/* === target-executable C code, synthesized by the roadworks CIC "
      "translator ===\n * program: %s\n * target:  %s (%s memory style, %zu "
      "PEs)\n */\n\n",
      prog_.name().c_str(), arch_.name.c_str(),
      memory_style_name(arch_.style), arch_.platform.cores.size());
  s += shared ? "#include \"rt/shm_ring.h\"\n#include \"rt/lock.h\"\n"
              : "#include \"rt/msgq.h\"\n#include \"rt/dma.h\"\n";
  s += "#include \"rt/sched.h\"\n\n/* --- channels --- */\n";
  for (const auto& c : prog_.channels()) {
    if (shared) {
      s += strformat(
          "static shm_ring_t ch%u; /* %s: %uB tokens, depth %zu, "
          "lock-protected in shared memory */\n",
          c.id.value(), c.name.c_str(), c.token_bytes, c.capacity);
    } else {
      s += strformat(
          "static msgq_t ch%u;    /* %s: %uB tokens, depth %zu, DMA over "
          "interconnect */\n",
          c.id.value(), c.name.c_str(), c.token_bytes, c.capacity);
    }
  }

  s += "\n/* --- task wrappers --- */\n";
  for (const auto& t : prog_.tasks()) {
    s += strformat("static void task_%s(void) {\n", t.name.c_str());
    for (const CicChannel* ch : prog_.inputs_of(t.id)) {
      s += shared ? strformat(
                        "  token_t in%zu; lock(&ch%u.mtx); "
                        "shm_ring_pop(&ch%u, &in%zu); unlock(&ch%u.mtx);\n",
                        ch->dst_port, ch->id.value(), ch->id.value(),
                        ch->dst_port, ch->id.value())
                  : strformat("  token_t in%zu = msgq_recv(&ch%u);\n",
                              ch->dst_port, ch->id.value());
    }
    s += strformat("  /* %llu cycles of task body */\n  %s_kernel();\n",
                   static_cast<unsigned long long>(t.wcet), t.name.c_str());
    for (const CicChannel* ch : prog_.outputs_of(t.id)) {
      s += shared ? strformat(
                        "  lock(&ch%u.mtx); shm_ring_push(&ch%u, out%zu); "
                        "unlock(&ch%u.mtx);\n",
                        ch->id.value(), ch->id.value(), ch->src_port,
                        ch->id.value())
                  : strformat("  dma_send(&ch%u, out%zu, /*bytes=*/%u);\n",
                              ch->id.value(), ch->src_port, ch->token_bytes);
    }
    s += "}\n";
  }

  s += "\n/* --- per-PE run-time systems --- */\n";
  for (std::size_t pe = 0; pe < arch_.platform.cores.size(); ++pe) {
    s += strformat("void pe%zu_main(void) { /* %s @ %s */\n", pe,
                   sim::pe_class_name(arch_.platform.cores[pe].cls),
                   format_hz(arch_.platform.cores[pe].frequency).c_str());
    bool any = false;
    for (std::size_t t = 0; t < prog_.tasks().size(); ++t) {
      if (mapping_.task_to_pe[t] != pe) continue;
      any = true;
      const auto& task = prog_.tasks()[t];
      if (task.period > 0) {
        s += strformat(
            "  rt_register_periodic(task_%s, /*period_ps=*/%llu, "
            "/*deadline_ps=*/%llu);\n",
            task.name.c_str(),
            static_cast<unsigned long long>(task.period),
            static_cast<unsigned long long>(task.deadline));
      } else {
        s += strformat("  rt_register_datadriven(task_%s);\n",
                       task.name.c_str());
      }
    }
    if (!any) s += "  /* idle PE */\n";
    s += "  rt_run();\n}\n";
  }
  return s;
}

}  // namespace rw::cic
