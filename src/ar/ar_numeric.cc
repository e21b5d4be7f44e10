#include "src/ar/ar_numeric.h"

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
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    int key = static_cast<int>(v);
    if (!Manages(key)) {
      continue;
    }
    if (per_rank.front().grads.find(key) == per_rank.front().grads.end()) {
      continue;
    }
    bool is_sparse = per_rank.front().grads.at(key).is_sparse();
    if (is_sparse) {
      std::vector<IndexedSlices> contributions;
      contributions.reserve(per_rank.size());
      for (const StepResult& r : per_rank) {
        contributions.push_back(r.grads.at(key).sparse());
      }
      IndexedSlices aggregated =
          AllGathervAggregate(contributions, config_.sparse_aggregation);
      values_.ApplySgd(key, GradValue::MakeSparse(std::move(aggregated)), learning_rate);
    } else {
      std::vector<Tensor> contributions;
      contributions.reserve(per_rank.size());
      for (const StepResult& r : per_rank) {
        contributions.push_back(r.grads.at(key).dense());
      }
      Tensor aggregated = AllReduceAggregate(contributions, config_.dense_aggregation);
      values_.ApplySgd(key, GradValue::MakeDense(std::move(aggregated)), learning_rate);
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
