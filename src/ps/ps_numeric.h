// Numeric runtime of the Parameter Server architecture: synchronous gradient
// accumulators, optional per-machine local aggregation, and chief-triggered updates
// (paper sections 4.3 and 5).
//
// This engine computes the *values* PS training produces — the timing plane lives in
// core/iteration_sim.h. The protocol structure matches the paper's optimized PS:
//   1. each worker pushes its gradient (or each machine pushes a locally-aggregated one),
//   2. the accumulators sum contributions in deterministic arrival order,
//   3. once every expected contribution arrived, the chief worker triggers the update,
//   4. workers observe the new values (the shared-queue notification barrier).
//
// Partitioning and placement decide where a variable's rows live and how long a step
// takes, never what a step computes, so they live only in the timing plane
// (IterationSimulator, TransformGraph, the migration charge). The engine holds one
// buffer per variable (the graph's initial tensor until its first update copies it) and
// updates each row in place: the same float operations, row for row, as the per-piece
// updates of a partitioned server, so values are bit-identical at every partition
// count (tests/naive_reference.h keeps the split pipeline as the oracle).
//
// PsNumericEngine implements the SyncEngine interface (core/sync_engine.h) and registers
// as "ps": Prepare routes the plan's PS variables here and refreshes the aggregation
// semantics; values never move. A sparse variable is summed on its own slot table
// (RowSlotSum), per machine and then globally, and each summed row's SGD update is
// written straight into the variable's row; a dense one is summed into an engine-owned
// buffer. A warm step allocates nothing.
#ifndef PARALLAX_SRC_PS_PS_NUMERIC_H_
#define PARALLAX_SRC_PS_PS_NUMERIC_H_

#include <span>
#include <string>
#include <vector>

#include "src/comm/reduce.h"
#include "src/core/sync_engine.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/tensor/indexed_slices.h"

namespace parallax {

struct PsNumericConfig {
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
// `engine`: the plan's aggregation semantics and the variables it routes to that name.
// The Prepare of every PS-family engine (ps, async_ps, topk_ps, int8_ps) builds its
// inner engine's config here.
PsNumericConfig PsNumericConfigFor(const SyncPlan& plan, const std::string& engine);

// The server group: every variable's value plus the synchronous aggregation logic.
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
  // ApplyStep on the results of any run of ranks, read in place: the asynchronous
  // engine applies each push as a one-rank step without copying it into a batch.
  void ApplyRanks(std::span<const StepResult> per_rank, float learning_rate);
  // The managed variables' buffers (no copy): the graph's initial tensor until the
  // engine's first write to a variable, its own buffer after that, which every later
  // ApplyStep writes through and a Prepare leaves as it is.
  VariableStore View() const override;
  SyncMethod CostMethod(GradKind) const override { return SyncMethod::kPs; }
  // Checkpoint restore: each managed variable present in `values` gets a copy of it.
  void LoadValues(const VariableStore& values) override;

  // Swaps in a new routing and aggregation configuration; values are untouched.
  // Prepare is this plus the plan translation.
  void Reconfigure(PsNumericConfig config);

  // A deep copy of the managed variables' current values, as workers observe them after
  // the chief's notification; it never shares a buffer with View().
  VariableStore CurrentValues() const;

  const PsNumericConfig& config() const { return config_; }

 private:
  bool Manages(int variable_index) const;
  void ApplyDense(int variable, std::span<const StepResult> per_rank, float learning_rate,
                  int ranks_per_machine);
  void ApplySparse(int variable, std::span<const StepResult> per_rank, float learning_rate,
                   int ranks_per_machine, int tap_rank);

  const Graph* graph_;
  PsNumericConfig config_;
  // Every graph variable: the graph's initial tensor until this engine's first write
  // to it (ApplyStep's update or LoadValues), then the engine's own buffer.
  VariableStore values_;
  // Aggregation state per graph variable, grow-only and reused every step. Not
  // thread-safe: owned by the step path, like the engine's variables.
  struct Aggregation {
    // Sparse: row -> slot of the sum under way, -1 when free (RowSlotSum).
    std::vector<int32_t> slots;
    // Sparse: each machine's sum of its ranks (local aggregation), then the global sum.
    std::vector<RowSlotSum> machines;
    RowSlotSum global;
    // Dense: the aggregated gradient, and one machine's sum under local aggregation.
    Tensor dense_sum;
    Tensor dense_machine;
  };
  std::vector<Aggregation> aggregation_;
  // Which rank the per-rank access tap samples this step (round-robin across steps,
  // so every worker is represented without counting all of them every step).
  int64_t observe_rotation_ = 0;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_PS_PS_NUMERIC_H_
