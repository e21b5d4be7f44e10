// Numeric runtime of the Parameter Server architecture: partitioned variable shards,
// synchronous gradient accumulators, optional per-machine local aggregation, and
// chief-triggered updates (paper sections 4.3 and 5).
//
// This engine computes the *values* PS training produces — the timing plane lives in
// core/iteration_sim.h. The protocol structure matches the paper's optimized PS:
//   1. each worker pushes its gradient (or each machine pushes a locally-aggregated one),
//   2. per-shard accumulators sum contributions in deterministic arrival order,
//   3. once every expected contribution arrived, the chief worker triggers the update op
//      colocated with the shard,
//   4. workers observe the new values (the shared-queue notification barrier).
//
// PsNumericEngine implements the SyncEngine interface (core/sync_engine.h) and registers
// as "ps": Prepare routes the plan's PS variables here, and a re-Prepare with a new
// partition count re-splits the shards around the *current* values (elastic
// re-partitioning). Every sparse variable of a step is aggregated in one fused
// MultiVariableSum pass per level, and the global level writes its SGD update straight
// into the owning shard rows.
#ifndef PARALLAX_SRC_PS_PS_NUMERIC_H_
#define PARALLAX_SRC_PS_PS_NUMERIC_H_

#include <optional>
#include <string>
#include <vector>

#include "src/comm/reduce.h"
#include "src/core/sync_engine.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/ps/partition.h"
#include "src/tensor/sparse_workspace.h"

namespace parallax {

struct PsNumericConfig {
  // Per-variable partition counts, parallel to Graph::variables(): each
  // partitioner-scoped variable is split into RowCappedPartitions(count, rows) pieces
  // (core/partition_plan.h). Empty = every variable stays whole. PsNumericConfigFor
  // fills it from the SyncPlan; a directly configured engine that wants one P for every
  // variable writes variable_partitions.assign(graph.variables().size(), P).
  std::vector<int> variable_partitions;
  // Per-variable shard placements, parallel to Graph::variables() when non-empty; an
  // empty inner vector means round-robin. The numeric runtime stores every shard in
  // process, so placement changes values not at all — the field records the layout in
  // force so introspection agrees with the plan, and a placement-only Reconfigure is a
  // pure config update: counts unchanged means no shard is materialized or re-split.
  std::vector<std::vector<int>> variable_placements;
  // Aggregate per machine before pushing (OptPS / Parallax local aggregation).
  bool local_aggregation = false;
  // How gradients combine across workers.
  AggregationMethod dense_aggregation = AggregationMethod::kAverage;
  AggregationMethod sparse_aggregation = AggregationMethod::kAverage;
  // Ranks per machine (for local aggregation grouping).
  int ranks_per_machine = 1;
  // Variable indices this engine owns; empty means all (the hybrid runner assigns only
  // the PS-routed subset here and the AR-routed subset to the AR engine).
  std::vector<int> managed_variables;
};

// The one translation from a SyncPlan to the config of the PS engine registered as
// `engine`: the plan's per-variable counts and placements, its aggregation semantics,
// and the variables it routes to that name. The Prepare of every PS-family engine
// (ps, async_ps, topk_ps, int8_ps) builds its inner engine's config here.
PsNumericConfig PsNumericConfigFor(const SyncPlan& plan, const std::string& engine);

// One variable as the servers store it: whole (dense or unpartitioned) or row-partitioned.
class PsVariable {
 public:
  PsVariable(Tensor initial, int partitions);

  // Full current value (stitched) — what a worker pull materializes.
  Tensor Materialize() const;

  void ApplyDenseSgd(const Tensor& grad, float learning_rate);

  // Storage row holding global row `row`: the piece RowPartition::PartitionOfRow names,
  // at the piece-local row. The sparse step routes every aggregated row to its shard
  // through this and updates it in place — the per-piece update ops the transformation
  // colocates with the shards; distinct rows may be written concurrently.
  float* MutableRow(int64_t row);

  const TensorShape& shape() const { return shape_; }
  int num_partitions() const { return partition_ ? partition_->num_partitions() : 1; }

 private:
  TensorShape shape_;
  std::optional<RowPartition> partition_;
  std::vector<Tensor> pieces_;  // one entry when unpartitioned
};

// The server group: every variable's shards plus the synchronous aggregation logic.
class PsNumericEngine : public SyncEngine {
 public:
  // Unconfigured engine (the registry path): Prepare(plan) routes variables here.
  explicit PsNumericEngine(const Graph* graph);
  // Directly configured engine (tests, standalone use).
  PsNumericEngine(const Graph* graph, PsNumericConfig config);

  // SyncEngine:
  void Prepare(const SyncPlan& plan) override;
  // One synchronous training step given each rank's backward results (all ranks must
  // report a gradient for the same variable set). Applies SGD with `learning_rate`.
  void ApplyStep(const std::vector<StepResult>& per_rank, float learning_rate) override;
  VariableStore View() const override { return CurrentValues(); }
  SyncMethod CostMethod(GradKind) const override { return SyncMethod::kPs; }
  // Re-splits each managed variable's shards around the values in `values` (checkpoint
  // restore), keeping every partition count. Requires a prior Prepare/Reconfigure.
  void LoadValues(const VariableStore& values) override;

  // Swaps in a new configuration, preserving the variables' current values. Only
  // variables whose partition count actually changes are materialized and re-split;
  // unchanged variables keep their shards as-is — what makes a mostly-stable
  // PartitionPlan swap cheap. Prepare is this plus plan routing.
  void Reconfigure(PsNumericConfig config);

  // Current full values, as workers observe them after the chief's notification.
  VariableStore CurrentValues() const;

  const PsNumericConfig& config() const { return config_; }

 private:
  bool Manages(int variable_index) const;
  void ApplySparseFused(const std::vector<int>& variables,
                        const std::vector<StepResult>& per_rank, float learning_rate,
                        int ranks_per_machine);

  const Graph* graph_;
  PsNumericConfig config_;
  std::vector<PsVariable> variables_;
  // Scratch arena for the fused sparse aggregation (sort buffers, segment table);
  // reused every ApplyStep so steady-state aggregation never allocates scratch. Not
  // thread-safe: owned by the step path, like the engine's variables.
  SparseWorkspace workspace_;
  // Per-group coalesced row counts from the fused pass, reported to the attached
  // SparseAccessObserver; sized only when an observer is present.
  std::vector<int64_t> observed_unique_;
  // Which rank the per-rank access tap samples this step (round-robin across steps,
  // so every worker is represented without counting all of them every step).
  int64_t observe_rotation_ = 0;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_PS_PS_NUMERIC_H_
