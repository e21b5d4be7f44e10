#include "src/ps/ps_numeric.h"

#include "src/tensor/indexed_slices.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {

PsNumericEngine::PsNumericEngine(const Graph* graph) : graph_(graph) {
  PX_CHECK(graph != nullptr);
  set_name("ps");
  values_ = VariableStore::ShareFrom(*graph);
}

PsNumericEngine::PsNumericEngine(const Graph* graph, PsNumericConfig config)
    : PsNumericEngine(graph) {
  Reconfigure(std::move(config));
}

PsNumericConfig PsNumericConfigFor(const SyncPlan& plan, const std::string& engine) {
  PsNumericConfig config;
  config.local_aggregation = plan.local_aggregation;
  config.dense_aggregation = plan.dense_aggregation;
  config.sparse_aggregation = plan.sparse_aggregation;
  config.ranks_per_machine = plan.ranks_per_machine;
  config.managed_variables = plan.ManagedBy(engine);
  return config;
}

void PsNumericEngine::Prepare(const SyncPlan& plan) {
  Reconfigure(PsNumericConfigFor(plan, name()));
}

void PsNumericEngine::Reconfigure(PsNumericConfig config) {
  PX_CHECK_GE(config.ranks_per_machine, 1);
  config_ = std::move(config);
}

void PsNumericEngine::LoadValues(const VariableStore& values) {
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    const int key = static_cast<int>(v);
    if (Manages(key) && values.Contains(key)) {
      values_.Set(key, values.Get(key).Clone());
    }
  }
}

bool PsNumericEngine::Manages(int variable_index) const {
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

void PsNumericEngine::ApplyStep(const std::vector<StepResult>& per_rank,
                                float learning_rate) {
  PX_CHECK(!per_rank.empty());
  const int num_ranks = static_cast<int>(per_rank.size());
  const int ranks_per_machine = config_.local_aggregation ? config_.ranks_per_machine : 1;
  PX_CHECK_EQ(num_ranks % ranks_per_machine, 0)
      << "ranks must fill machines evenly for local aggregation";

  // Dense variables are aggregated one at a time, AllReduce-style; sparse ones are
  // collected and batched through the fused multi-variable aggregation below. Variables
  // are independent (aggregation never mixes them numerically), so the split changes
  // nothing about the values.
  std::vector<int> sparse_vars;
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    int key = static_cast<int>(v);
    if (!Manages(key)) {
      continue;
    }
    // Collect contributions; every rank must agree on whether the gradient exists and
    // whether it is sparse (same graph on every replica).
    if (per_rank.front().grads.find(key) == per_rank.front().grads.end()) {
      for (const StepResult& r : per_rank) {
        PX_CHECK(r.grads.find(key) == r.grads.end()) << "inconsistent gradient presence";
      }
      continue;
    }
    if (per_rank.front().grads.at(key).is_sparse()) {
      sparse_vars.push_back(key);
      continue;
    }
    std::vector<Tensor> global_inputs;
    for (int base = 0; base < num_ranks; base += ranks_per_machine) {
      std::vector<Tensor> local;
      local.reserve(static_cast<size_t>(ranks_per_machine));
      for (int r = base; r < base + ranks_per_machine; ++r) {
        local.push_back(per_rank[static_cast<size_t>(r)].grads.at(key).dense());
      }
      global_inputs.push_back(local.size() == 1 ? local.front() : AllReduceSum(local));
    }
    Tensor aggregated = AllReduceSum(global_inputs);
    if (config_.dense_aggregation == AggregationMethod::kAverage) {
      ScaleInPlace(aggregated, 1.0f / static_cast<float>(num_ranks));
    }
    AxpyInPlace(values_.GetMutable(key), -learning_rate, aggregated);
  }

  // Per-rank taps: one worker's own coalesced row count is a direct access-ratio
  // sample (no union inversion). One rotating rank per step — the estimator still
  // sees every worker over time, but the tap costs a single coalesce-count per
  // variable per step (a fraction of the aggregation pass's own sort work; training
  // gradients are fresh every step, so unique_rows() is a real count here, not a
  // cache hit). Emitted only for multi-rank steps — a single-rank step's aggregate
  // observation below IS the rank sample, and double-reporting it would overweight
  // it in the monitor's estimators.
  if (observer() != nullptr && num_ranks > 1 && !sparse_vars.empty()) {
    const auto tap_rank = static_cast<size_t>(observe_rotation_++ % num_ranks);
    for (int v : sparse_vars) {
      observer()->ObserveRankAccess(v, per_rank[tap_rank].grads.at(v).sparse().unique_rows());
    }
  }

  if (!sparse_vars.empty()) {
    ApplySparseFused(sparse_vars, per_rank, learning_rate, ranks_per_machine);
  }
}

void PsNumericEngine::ApplySparseFused(const std::vector<int>& variables,
                                       const std::vector<StepResult>& per_rank,
                                       float learning_rate, int ranks_per_machine) {
  const int num_ranks = static_cast<int>(per_rank.size());
  const int num_machines = num_ranks / ranks_per_machine;
  const size_t n_vars = variables.size();

  // Level 1 — local aggregation: every machine sums its ranks' gradients for ALL
  // variables in one fused pass. Skipped when each machine contributes one rank: the
  // raw gradient *is* the machine's contribution, so the global level consumes the raw
  // slices (coalescing them first would regroup each row's float additions).
  std::vector<std::vector<IndexedSlices>> machine_bundles;
  std::vector<SparseSumGroup> groups(n_vars);
  if (ranks_per_machine > 1) {
    machine_bundles.reserve(static_cast<size_t>(num_machines));
    for (int m = 0; m < num_machines; ++m) {
      for (size_t i = 0; i < n_vars; ++i) {
        groups[i].inputs.clear();
        for (int r = m * ranks_per_machine; r < (m + 1) * ranks_per_machine; ++r) {
          groups[i].inputs.push_back(
              &per_rank[static_cast<size_t>(r)].grads.at(variables[i]).sparse());
        }
      }
      machine_bundles.push_back(MultiVariableSum(groups, &workspace_));
    }
  }

  // Level 2 — global accumulation fused with the update: one streaming pass sums each
  // coalesced row, applies the aggregation scale, and writes the SGD update straight
  // into the variable's row. No aggregated gradient tensor is ever materialized — the
  // element-wise operations (sum in a fresh zero buffer, *= scale, dst -= lr * v) are
  // exactly those of the seed's per-variable pipeline (sum, scale, split by partition,
  // scatter update into each piece; tests/naive_reference.h keeps it as the oracle),
  // so the result is bit-identical to it at every partition count.
  row_targets_.resize(n_vars);
  for (size_t i = 0; i < n_vars; ++i) {
    groups[i].inputs.clear();
    for (int m = 0; m < num_machines; ++m) {
      groups[i].inputs.push_back(
          ranks_per_machine > 1
              ? &machine_bundles[static_cast<size_t>(m)][i]
              : &per_rank[static_cast<size_t>(m)].grads.at(variables[i]).sparse());
    }
    Tensor& value = values_.GetMutable(variables[i]);
    PX_CHECK(groups[i].inputs.front()->dense_shape() == value.shape());
    row_targets_[i] = {value.mutable_floats().data(), value.shape().row_elements()};
  }
  const bool average = config_.sparse_aggregation == AggregationMethod::kAverage;
  const float scale = 1.0f / static_cast<float>(num_ranks);
  // The observation tap: with no observer the stream is asked for nothing and the
  // step is instruction-for-instruction the unobserved one.
  std::vector<int64_t>* unique_out = observer() != nullptr ? &observed_unique_ : nullptr;
  MultiVariableSumStream(groups, &workspace_,
                         [&](int64_t g, int64_t row, const float* values) {
    const RowTarget& target = row_targets_[static_cast<size_t>(g)];
    const int64_t width = target.width;
    float* dst = target.base + row * width;
    if (average) {
      // (v * scale) then (lr * scaled) — the float sequence of a scale pass followed
      // by a scatter update.
      for (int64_t j = 0; j < width; ++j) {
        dst[j] -= learning_rate * (values[j] * scale);
      }
    } else {
      for (int64_t j = 0; j < width; ++j) {
        dst[j] -= learning_rate * values[j];
      }
    }
  }, unique_out);
  if (observer() != nullptr) {
    for (size_t i = 0; i < n_vars; ++i) {
      observer()->ObserveSparseStep(variables[i], observed_unique_[i], num_ranks);
    }
  }
}

VariableStore PsNumericEngine::View() const {
  VariableStore view;
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    if (Manages(static_cast<int>(v))) {
      view.Set(static_cast<int>(v), values_.Get(static_cast<int>(v)));
    }
  }
  return view;
}

VariableStore PsNumericEngine::CurrentValues() const { return View().Clone(); }

}  // namespace parallax
