// Numeric runtime of the AllReduce architecture (Horovod-style, paper section 2.1):
// every rank holds a full replica of all variables; dense gradients are AllReduce-summed,
// sparse gradients are AllGatherv-concatenated, and every replica applies the identical
// aggregated gradient — so replicas never diverge.
//
// That invariant is what makes the AR architecture "simple" (paper section 2.1), and it
// is also why the engine stores one copy: identical replicas are one value, and a
// replica count decides only how long a step takes, which the timing plane models
// (ring AllReduce and AllGatherv over the plan's ranks). Every rank reads the same
// buffers through View().
//
// ArNumericEngine implements the SyncEngine interface (core/sync_engine.h) and registers
// as "ar". Its timing-plane cost hook routes dense gradients to ring AllReduce and
// sparse ones to AllGatherv.
#ifndef PARALLAX_SRC_AR_AR_NUMERIC_H_
#define PARALLAX_SRC_AR_AR_NUMERIC_H_

#include <vector>

#include "src/comm/reduce.h"
#include "src/core/sync_engine.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"

namespace parallax {

struct ArNumericConfig {
  AggregationMethod dense_aggregation = AggregationMethod::kAverage;
  AggregationMethod sparse_aggregation = AggregationMethod::kAverage;
  // Variable indices this engine owns; empty means all (hybrid routing).
  std::vector<int> managed_variables;
};

class ArNumericEngine : public SyncEngine {
 public:
  explicit ArNumericEngine(const Graph* graph, ArNumericConfig config = {});

  // SyncEngine:
  // Refreshes routing and aggregation semantics; values never move, whatever the plan's
  // rank count (GraphRunner::Rescale re-Prepares with a new one).
  void Prepare(const SyncPlan& plan) override;
  // One synchronous step over any number of ranks: aggregates per-rank gradients with
  // collective semantics and applies the result once.
  void ApplyStep(const std::vector<StepResult>& per_rank, float learning_rate) override;
  // The managed variables' buffers (no copy): the graph's initial tensor until the
  // engine's first write to a variable, its own buffer after that, which every later
  // ApplyStep writes through and a Prepare leaves as it is.
  VariableStore View() const override;
  SyncMethod CostMethod(GradKind kind) const override {
    return kind == GradKind::kSparse ? SyncMethod::kArAllGatherv
                                     : SyncMethod::kArAllReduce;
  }
  // Checkpoint restore: each managed variable present in `values` gets a copy of it.
  void LoadValues(const VariableStore& values) override;

 private:
  bool Manages(int variable_index) const;

  const Graph* graph_;
  ArNumericConfig config_;
  // Every graph variable: the graph's initial tensor until this engine's first write
  // to it (ApplyStep's update or LoadValues), then the engine's own buffer.
  VariableStore values_;
  // Per graph variable, the aggregated dense gradient: reused every step.
  std::vector<Tensor> dense_sums_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_AR_AR_NUMERIC_H_
