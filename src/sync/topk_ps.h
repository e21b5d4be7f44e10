// "topk_ps": synchronous parameter-server training with per-variable top-k magnitude
// sparsification and optional error-feedback residual accumulation (docs/compression.md).
//
// The engine wraps the PS numeric runtime the way the async engine does: Prepare
// translates the SyncPlan through PsNumericConfigFor for the variables routed here,
// and ApplyStep hands the inner engine *compressed* per-rank gradients — each
// rank's sparse gradient is folded into that rank's residual, the k highest-energy
// rows are selected (k = ceil(ratio * incoming nnz), deterministic tie-break), sent,
// and zeroed from the residual. With error_feedback on, unsent rows stay in the
// residual and re-compete next step (DGC-style); off, the residual is cleared every
// step — naive top-k, the ablation baseline the convergence harness compares against.
//
// Because the inner engine aggregates the compressed slices, an attached
// SparseAccessObserver sees *post-compression* nnz — the composition that lets the
// adaptive partitioner price the compressed wire volume. Dense gradients pass through
// untouched. ratio >= 1.0 short-circuits to a direct delegate call (bit-identical to
// "ps", including float summation order — asserted by the equivalence suite).
#ifndef PARALLAX_SRC_SYNC_TOPK_PS_H_
#define PARALLAX_SRC_SYNC_TOPK_PS_H_

#include <unordered_map>
#include <vector>

#include "src/ps/ps_numeric.h"

namespace parallax {

struct TopKPsConfig {
  // Fraction of the incoming gradient's unique rows that survive selection:
  // k = max(1, ceil(ratio * nnz)). >= 1.0 disables compression entirely (exact "ps"
  // pass-through).
  double ratio = 0.1;
  // Accumulate unsent rows into the residual (error feedback) instead of dropping
  // them. The convergence harness demonstrates this is what keeps top-k inside the
  // envelope; naive mode exists as the ablation.
  bool error_feedback = true;
};

// Registers a TopKPsEngine factory with `config` under `name` in the global registry —
// how tests and applications reach non-default ratios / naive mode through
// RunnerBuilder::WithEngine. Same Status contract as SyncEngineRegistry::Register.
Status RegisterTopKPsEngine(const std::string& name, TopKPsConfig config);

class TopKPsEngine : public SyncEngine {
 public:
  TopKPsEngine(const Graph* graph, TopKPsConfig config);

  // SyncEngine:
  void Prepare(const SyncPlan& plan) override;
  void ApplyStep(const std::vector<StepResult>& per_rank, float learning_rate) override;
  VariableStore View() const override { return engine_.View(); }
  SyncMethod CostMethod(GradKind) const override { return SyncMethod::kPs; }
  CompressionSpec CostCompression(GradKind kind) const override;
  // Checkpoint restore moves the inner engine's values. Residuals are transient
  // optimizer-side state and restart at zero, like a fresh run's.
  void LoadValues(const VariableStore& values) override { engine_.LoadValues(values); }
  void set_observer(SparseAccessObserver* observer) override {
    SyncEngine::set_observer(observer);
    engine_.set_observer(observer);
  }

  const TopKPsConfig& config() const { return config_; }
  // Rows selected (summed over managed sparse variables and ranks) in the last
  // ApplyStep — what the compression actually shipped; tests read it.
  int64_t last_selected_rows() const { return last_selected_rows_; }

 private:
  // Per (rank, variable) compression state: the residual, its active-row bookkeeping,
  // and the selection scratch. Grow-only, reused every step.
  struct VarState {
    Tensor residual;                 // dense [rows, width]; lazily allocated
    std::vector<uint8_t> in_active;  // row -> currently in `active`
    std::vector<int64_t> active;     // rows with (potentially) nonzero residual
    std::vector<float> scores;       // parallel to `active` after scoring
  };

  void CompressSparse(VarState& state, const IndexedSlices& incoming, GradValue& out);

  TopKPsConfig config_;
  PsNumericEngine engine_;
  const Graph* graph_;
  std::vector<uint8_t> managed_;  // parallel to Graph::variables()
  // Engine-owned compressed per-rank results: the runner hands every engine the SAME
  // StepResult batch, so compression must never mutate the incoming gradients.
  std::vector<StepResult> compressed_;
  std::vector<std::unordered_map<int, VarState>> state_;  // [rank][variable]
  std::vector<int64_t> selected_;
  std::vector<int64_t> select_scratch_;  // TopKSelectRows' candidate permutation
  // CountDistinctRows' slot table over the largest sparse variable's rows, every entry
  // -1 between calls: the incoming gradient's distinct rows, counted without a sort.
  std::vector<int32_t> distinct_table_;
  int64_t last_selected_rows_ = 0;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_SYNC_TOPK_PS_H_
