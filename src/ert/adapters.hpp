// Conversions that make ert::JobSpec the single source of truth for job
// descriptions.
//
// Before rw::ert, every layer grew its own run description: maps::multiapp
// consumed annotated TaskGraphs, the benches kept local duplicates
// (bench_a4's pipeline builder), and CIC programs could only run through
// the translator. These adapters convert each legacy shape to and from
// JobSpec so the old entry points become thin views of the one API:
//
//   maps::TaskGraph  <-> JobSpec      (multiapp app descriptors)
//   cic::CicProgram   -> JobSpec      (architecture-independent programs)
#pragma once

#include <string>
#include <vector>

#include "cic/model.hpp"
#include "ert/job.hpp"
#include "ert/service.hpp"
#include "maps/multiapp.hpp"

namespace rw::ert {

/// JobSpec from an annotated maps task graph: criticality maps to the QoS
/// class, period/deadline carry over (a hard-RT graph with a period but
/// no explicit deadline keeps deadline==period, the multiapp convention).
[[nodiscard]] JobSpec jobspec_from_taskgraph(const maps::TaskGraph& g);

/// The inverse: a multiapp-ready descriptor (graph + RtAnnotation) from a
/// spec. jobspec_from_taskgraph ∘ taskgraph_from_jobspec is the identity
/// on the fields both sides model.
[[nodiscard]] maps::TaskGraph taskgraph_from_jobspec(const JobSpec& spec);

/// JobSpec from an architecture-independent CIC program: each task
/// becomes a node costing wcet*iterations reference cycles, each channel
/// an edge moving token_bytes*iterations bytes. Periodic sources make the
/// job realtime with deadline = max task deadline (if any is annotated).
[[nodiscard]] JobSpec jobspec_from_cic(const cic::CicProgram& prog,
                                       std::uint64_t iterations = 1);

}  // namespace rw::ert
