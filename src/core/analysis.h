// Sparsity analysis and hybrid architecture assignment (paper sections 3.1, 4.2, 5).
//
// A variable is sparse iff its gradient is IndexedSlices — determined statically from the
// graph (how the variable is consumed) and confirmed by runtime samples, which also
// measure alpha (the per-worker element access ratio). The hybrid assigner then maps
// dense variables to AllReduce and sparse ones to PS, except sparse variables whose alpha
// is close to 1, which ride AllReduce as dense payloads.
#ifndef PARALLAX_SRC_CORE_ANALYSIS_H_
#define PARALLAX_SRC_CORE_ANALYSIS_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/iteration_sim.h"
#include "src/core/partition_plan.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/models/model_spec.h"

namespace parallax {

struct VariableSparsity {
  GradKind kind = GradKind::kNone;
  // Mean fraction of rows a worker touches per iteration (1.0 for dense), measured over
  // the provided sample steps; falls back to 1.0 with no samples.
  double alpha = 1.0;
  int64_t num_elements = 0;
  int64_t row_elements = 1;
};

// Static kind analysis plus alpha measurement from sample backward passes.
std::unordered_map<int, VariableSparsity> AnalyzeSparsity(const Graph& graph, NodeId loss,
                                                          std::span<const StepResult> samples);

// Cost-model workload view of a graph's variables (feeds the partition search and the
// timing plane for runner-managed training).
std::vector<VariableSpec> ToVariableSpecs(const Graph& graph,
                                          const std::unordered_map<int, VariableSparsity>& info);

struct HybridOptions {
  double alpha_dense_threshold = 0.8;
};

// The per-variable architecture decision.
SyncMethod DecideSyncMethod(const VariableSparsity& info, const HybridOptions& options);

// One variable of a model as the partition search sees it. `sync` carries the routed
// method and the current layout; for `partitioned` variables a plan overrides
// partitions/placement (row-capped via `rows`), everything else is fixed. A per-variable
// search re-shards the partitioned sparse variables (SearchTargets,
// service/planner_service.h); a warm-started one resumes from sync.partitions and, in
// its first round, sweeps only the variables whose measured alpha `drifted` (true
// unless the runner's monitor says otherwise).
struct PlannerVariable {
  VariableSync sync;
  bool partitioned = false;
  int64_t rows = 1;
  bool drifted = true;

  bool operator==(const PlannerVariable& other) const = default;
};

// Pairs each routed variable (index-aligned with graph.variables()) with the graph's
// partitioning facts: a variable is partitioned when it is routed to PS and declared in
// a partitioner scope; rows is its leading dimension.
std::vector<PlannerVariable> PlannerVariablesOf(const Graph& graph,
                                                const std::vector<VariableSync>& variables);

// The one rule that applies a partition plan to variables: each partitioned variable
// gets the plan's count for its name, capped at its row count, and the plan's placement
// when that placement's length survives the cap (cleared otherwise, so a placement from
// an older plan never outlives the plan that carried it). Everything else passes
// through. The runner's assignment, its candidate layouts and the PlannerService all
// apply plans through here.
std::vector<VariableSync> ApplyPlanToVariables(const std::vector<PlannerVariable>& variables,
                                               const PartitionPlan& plan);

// Full assignment for a graph: every variable gets a method; each partitioner-scoped
// PS variable gets the plan's count for its name, capped at its row count.
std::vector<VariableSync> AssignGraphVariables(
    const Graph& graph, const std::unordered_map<int, VariableSparsity>& info,
    const HybridOptions& options, const PartitionPlan& plan);

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_ANALYSIS_H_
