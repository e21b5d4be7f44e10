#include "src/sync/int8_ps.h"

#include "src/sync/compression.h"

namespace parallax {

Status RegisterInt8PsEngine(const std::string& name, Int8PsConfig config) {
  return SyncEngineRegistry::Global().Register(
      name, [config](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
        return std::make_unique<Int8PsEngine>(env.graph, config);
      });
}

Int8PsEngine::Int8PsEngine(const Graph* graph, Int8PsConfig config)
    : config_(config), engine_(graph), graph_(graph) {
  PX_CHECK(graph != nullptr);
  set_name("int8_ps");
}

void Int8PsEngine::Prepare(const SyncPlan& plan) {
  // The inner engine must manage the variables routed to *this* engine's registry name.
  PsNumericConfig config = PsNumericConfigFor(plan, name());
  managed_.assign(graph_->variables().size(), 0);
  for (int v : config.managed_variables) {
    managed_[static_cast<size_t>(v)] = 1;
  }
  engine_.Reconfigure(std::move(config));
}

CompressionSpec Int8PsEngine::CostCompression(GradKind kind) const {
  (void)kind;
  if (config_.identity) {
    return {};
  }
  return {CompressionKind::kInt8, 1.0, false};
}

void Int8PsEngine::QuantizeGrad(const GradValue& incoming, GradValue& out) {
  if (incoming.is_sparse()) {
    const IndexedSlices& slices = incoming.sparse();
    if (!out.is_sparse()) {
      out = GradValue::MakeSparse(IndexedSlices());
    }
    IndexedSlices& q = out.mutable_sparse();
    q.ResetForReuse(slices.indices(), slices.dense_shape());
    if (q.mutable_values().shape() != slices.values().shape() ||
        !q.mutable_values().UniquelyOwned()) {
      q.mutable_values() = Tensor::Zeros(slices.values().shape());
    }
    QuantizeDequantizeInt8Rows(slices.values().floats(),
                               q.mutable_values().mutable_floats(), slices.nnz_rows(),
                               slices.row_elements());
    return;
  }
  const Tensor& dense = incoming.dense();
  if (out.is_sparse() || out.dense().shape() != dense.shape() ||
      !out.dense().UniquelyOwned()) {
    out = GradValue::MakeDense(Tensor::Zeros(dense.shape()));
  }
  const int64_t rows = dense.shape().rank() >= 1 ? dense.shape().dim(0) : 1;
  const int64_t width = dense.num_elements() / std::max<int64_t>(rows, 1);
  QuantizeDequantizeInt8Rows(dense.floats(), out.mutable_dense().mutable_floats(),
                             rows, width);
}

void Int8PsEngine::ApplyStep(const std::vector<StepResult>& per_rank,
                             float learning_rate) {
  if (config_.identity) {
    engine_.ApplyStep(per_rank, learning_rate);
    return;
  }
  quantized_.resize(per_rank.size());
  for (size_t r = 0; r < per_rank.size(); ++r) {
    quantized_[r].loss = per_rank[r].loss;
    for (size_t v = 0; v < managed_.size(); ++v) {
      const int key = static_cast<int>(v);
      auto it = per_rank[r].grads.find(key);
      if (!managed_[v] || it == per_rank[r].grads.end()) {
        quantized_[r].grads.erase(key);
        continue;
      }
      QuantizeGrad(it->second, quantized_[r].grads[key]);
    }
  }
  engine_.ApplyStep(quantized_, learning_rate);
}

}  // namespace parallax
