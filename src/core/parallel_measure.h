// The one batch-measure implementation behind the parallel partition search.
//
// SearchPartitionPlan's batched overload (cost_model.h) wants a PlanBatchMeasure:
// "simulate these candidate plans, return their seconds, index-aligned, bit-identical
// to the serial measure." This file builds that callback out of the pieces the
// serial call sites already hold — the cluster, the plan→variables application, the
// simulator config — plus a ThreadPool to fan candidates across and an ArenaPool to
// lease one SimulationArena per worker. SearchPlan (src/service/planner_service.h),
// the one search behind GraphRunner's private searches and the PlannerService, builds
// its batch measure here, so the concurrency mechanics (chunking, leasing, the worker
// cap) live in exactly one place.
//
// Determinism: each candidate is simulated independently on its own arena, and
// simulated times are arena-independent (the schedule cache only changes wall-clock),
// so seconds[i] is bit-identical to what a serial measure of plans[i] returns — the
// contract PlanBatchMeasure requires. Results are written to disjoint slots of a
// pre-sized vector; no accumulation crosses a chunk boundary.
#ifndef PARALLAX_SRC_CORE_PARALLEL_MEASURE_H_
#define PARALLAX_SRC_CORE_PARALLEL_MEASURE_H_

#include <functional>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/core/sync_engine.h"
#include "src/sim/cluster.h"

namespace parallax {

class ArenaPool;

// Everything one candidate simulation needs besides the plan itself. `apply_plan`
// must be safe to call concurrently from pool threads (SearchPlan's is
// ApplyPlanToVariables over the query's variables, a pure read of caller-owned state).
struct ParallelMeasureSpec {
  ClusterSpec cluster;
  std::function<std::vector<VariableSync>(const PartitionPlan&)> apply_plan;
  double gpu_compute_seconds = 0.0;
  int compute_chunks = 1;
  IterationSimConfig sim_config;
};

// Builds the batch-measure callback, or a null function when
// `options.concurrency` cannot buy parallelism (no pool, a one-lane cap, or a null
// arena pool) — callers pass the result straight to the batched search overloads,
// which degrade to serial on null. The returned callback leases one arena per worker
// chunk from `arenas` per call; `arenas` and everything captured by
// `spec.apply_plan` must outlive it.
PlanBatchMeasure MakeParallelPlanMeasure(ParallelMeasureSpec spec,
                                         const SearchConcurrency& concurrency,
                                         ArenaPool* arenas);

// Adapts a plan batch measure to the uniform search's integer candidates
// (P -> PartitionPlan::Uniform(P)). Null in, null out.
UniformBatchMeasure MakeUniformBatchMeasure(PlanBatchMeasure measure_batch);

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_PARALLEL_MEASURE_H_
