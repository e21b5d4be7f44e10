#include "src/ar/ar_numeric.h"

#include "src/tensor/tensor_ops.h"

namespace parallax {

ArNumericEngine::ArNumericEngine(const Graph* graph, ArNumericConfig config)
    : graph_(graph), config_(std::move(config)) {
  PX_CHECK(graph != nullptr);
  set_name("ar");
  values_ = VariableStore::ShareFrom(*graph);
}

void ArNumericEngine::Prepare(const SyncPlan& plan) {
  config_.dense_aggregation = plan.dense_aggregation;
  config_.sparse_aggregation = plan.sparse_aggregation;
  config_.managed_variables = plan.ManagedBy(name());
}

VariableStore ArNumericEngine::View() const {
  VariableStore view;
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    if (Manages(static_cast<int>(v))) {
      view.Set(static_cast<int>(v), values_.Get(static_cast<int>(v)));
    }
  }
  return view;
}

bool ArNumericEngine::Manages(int variable_index) const {
  if (config_.managed_variables.empty()) {
    return true;
  }
  for (int v : config_.managed_variables) {
    if (v == variable_index) {
      return true;
    }
  }
  return false;
}

void ArNumericEngine::ApplyStep(const std::vector<StepResult>& per_rank,
                                float learning_rate) {
  PX_CHECK(!per_rank.empty());
  const float scale = 1.0f / static_cast<float>(per_rank.size());
  dense_sums_.resize(graph_->variables().size());
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    int key = static_cast<int>(v);
    if (!Manages(key)) {
      continue;
    }
    if (per_rank.front().grads.find(key) == per_rank.front().grads.end()) {
      continue;
    }
    Tensor& value = values_.GetMutable(key);
    if (per_rank.front().grads.at(key).is_sparse()) {
      // AllGatherv: every rank's pairs in (rank, position) order, each scaled under
      // kAverage and applied in place — the float sequence of scaling the concatenated
      // slices and scattering them as one update.
      const bool average = config_.sparse_aggregation == AggregationMethod::kAverage;
      const int64_t width = value.shape().row_elements();
      float* base = value.mutable_floats().data();
      for (const StepResult& r : per_rank) {
        const IndexedSlices& grad = r.grads.at(key).sparse();
        PX_CHECK(grad.dense_shape() == value.shape());
        const float* src = grad.values().floats().data();
        for (int64_t row : grad.indices()) {
          SgdUpdateRow(base + row * width, src, width, learning_rate, average, scale);
          src += width;
        }
      }
    } else {
      // AllReduce: a copy of rank 0's gradient plus the others in rank order, scaled
      // under kAverage, in an engine-owned buffer.
      Tensor& sum = dense_sums_[v];
      CopyInto(sum, per_rank.front().grads.at(key).dense());
      for (size_t r = 1; r < per_rank.size(); ++r) {
        AddInPlace(sum, per_rank[r].grads.at(key).dense());
      }
      if (config_.dense_aggregation == AggregationMethod::kAverage) {
        ScaleInPlace(sum, scale);
      }
      AxpyInPlace(value, -learning_rate, sum);
    }
  }
}

void ArNumericEngine::LoadValues(const VariableStore& values) {
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    const int key = static_cast<int>(v);
    if (Manages(key) && values.Contains(key)) {
      values_.Set(key, values.Get(key).Clone());
    }
  }
}

}  // namespace parallax
