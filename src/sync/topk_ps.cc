#include "src/sync/topk_ps.h"

#include <cmath>

#include "src/sync/compression.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {

Status RegisterTopKPsEngine(const std::string& name, TopKPsConfig config) {
  return SyncEngineRegistry::Global().Register(
      name, [config](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
        return std::make_unique<TopKPsEngine>(env.graph, config);
      });
}

TopKPsEngine::TopKPsEngine(const Graph* graph, TopKPsConfig config)
    : config_(config), engine_(graph), graph_(graph) {
  PX_CHECK(graph != nullptr);
  PX_CHECK_GT(config_.ratio, 0.0);
  set_name("topk_ps");
}

void TopKPsEngine::Prepare(const SyncPlan& plan) {
  // The inner engine must manage the variables routed to *this* engine's registry name.
  PsNumericConfig config = PsNumericConfigFor(plan, name());
  managed_.assign(graph_->variables().size(), 0);
  for (int v : config.managed_variables) {
    managed_[static_cast<size_t>(v)] = 1;
  }
  engine_.Reconfigure(std::move(config));
}

CompressionSpec TopKPsEngine::CostCompression(GradKind kind) const {
  if (kind != GradKind::kSparse || config_.ratio >= 1.0) {
    return {};
  }
  return {CompressionKind::kTopK, config_.ratio, config_.error_feedback};
}

void TopKPsEngine::CompressSparse(VarState& state, const IndexedSlices& incoming,
                                  GradValue& out) {
  const TensorShape& shape = incoming.dense_shape();
  const int64_t rows = shape.dim(0);
  const int64_t width = shape.row_elements();
  if (state.residual.num_elements() != shape.num_elements()) {
    state.residual = Tensor::Zeros(shape);
    state.in_active.assign(static_cast<size_t>(rows), 0);
    state.active.clear();
  }

  if (!config_.error_feedback) {
    // Naive top-k: the residual carries exactly this step's gradient — unsent rows
    // are dropped, not remembered.
    auto values = state.residual.mutable_floats();
    for (int64_t row : state.active) {
      std::fill_n(values.data() + row * width, width, 0.0f);
      state.in_active[static_cast<size_t>(row)] = 0;
    }
    state.active.clear();
  }

  ScatterAddInPlace(state.residual, incoming);
  for (int64_t row : incoming.indices()) {
    if (!state.in_active[static_cast<size_t>(row)]) {
      state.in_active[static_cast<size_t>(row)] = 1;
      state.active.push_back(row);
    }
  }

  // Score every active row by residual energy, compacting rows that zeroed out (sent
  // last step, or exact cancellation) so the active set tracks the true support.
  auto residual = state.residual.floats();
  state.scores.clear();
  size_t kept = 0;
  for (size_t i = 0; i < state.active.size(); ++i) {
    const int64_t row = state.active[i];
    const float* data = residual.data() + row * width;
    float energy = 0.0f;
    for (int64_t j = 0; j < width; ++j) {
      energy += data[j] * data[j];
    }
    if (energy == 0.0f) {
      state.in_active[static_cast<size_t>(row)] = 0;
      continue;
    }
    state.active[kept++] = row;
    state.scores.push_back(energy);
  }
  state.active.resize(kept);

  // k tracks the *incoming* gradient's support, so the wire volume is ratio * nnz no
  // matter how much residual mass is waiting.
  if (distinct_table_.size() < static_cast<size_t>(rows)) {
    distinct_table_.resize(static_cast<size_t>(rows), -1);
  }
  const int64_t nnz = CountDistinctRows(incoming.indices(), distinct_table_);
  int64_t k = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(config_.ratio * static_cast<double>(nnz))));
  k = std::min(k, static_cast<int64_t>(state.active.size()));
  TopKSelectRows(state.active, state.scores, k, selected_, &select_scratch_);

  if (!out.is_sparse()) {
    out = GradValue::MakeSparse(IndexedSlices());
  }
  IndexedSlices& compressed = out.mutable_sparse();
  compressed.ResetForReuse(selected_, shape);
  // The values' buffer only grows: a step selecting fewer rows than an earlier one keeps it.
  GatherRowsInto(compressed.mutable_values(), state.residual, selected_);
  last_selected_rows_ += static_cast<int64_t>(selected_.size());

  // Sent mass leaves the residual; with error feedback everything else stays and
  // re-competes next step.
  auto values = state.residual.mutable_floats();
  for (int64_t row : selected_) {
    std::fill_n(values.data() + row * width, width, 0.0f);
  }
}

void TopKPsEngine::ApplyStep(const std::vector<StepResult>& per_rank,
                             float learning_rate) {
  if (config_.ratio >= 1.0) {
    // Identity configuration: delegate on the ORIGINAL results. Re-coalescing through
    // the residual would reorder float accumulation, and the equivalence suite holds
    // this path to bit-identity with "ps".
    engine_.ApplyStep(per_rank, learning_rate);
    return;
  }
  last_selected_rows_ = 0;
  compressed_.resize(per_rank.size());
  state_.resize(per_rank.size());
  for (size_t r = 0; r < per_rank.size(); ++r) {
    compressed_[r].loss = per_rank[r].loss;
    for (size_t v = 0; v < managed_.size(); ++v) {
      const int key = static_cast<int>(v);
      auto it = per_rank[r].grads.find(key);
      if (!managed_[v] || it == per_rank[r].grads.end()) {
        compressed_[r].grads.erase(key);
        continue;
      }
      if (!it->second.is_sparse()) {
        compressed_[r].grads[key] = it->second;  // dense rides uncompressed
        continue;
      }
      CompressSparse(state_[r][key], it->second.sparse(), compressed_[r].grads[key]);
    }
  }
  engine_.ApplyStep(compressed_, learning_rate);
}

}  // namespace parallax
