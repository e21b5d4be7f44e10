#include "src/ps/ps_numeric.h"

#include <algorithm>

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
  ApplyRanks(per_rank, learning_rate);
}

void PsNumericEngine::ApplyRanks(std::span<const StepResult> per_rank, float learning_rate) {
  PX_CHECK(!per_rank.empty());
  const int num_ranks = static_cast<int>(per_rank.size());
  const int ranks_per_machine = config_.local_aggregation ? config_.ranks_per_machine : 1;
  PX_CHECK_EQ(num_ranks % ranks_per_machine, 0)
      << "ranks must fill machines evenly for local aggregation";
  aggregation_.resize(graph_->variables().size());

  // The per-rank tap: one worker's own distinct-row count is a direct access-ratio
  // sample (no union inversion). One rotating rank per step, chosen at the step's first
  // sparse variable: the estimator still sees every worker over time. Only multi-rank
  // steps tap — a single-rank step's aggregate observation IS the rank sample, and
  // double-reporting it would overweight it in the monitor's estimators.
  int tap_rank = -1;
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    const int key = static_cast<int>(v);
    if (!Manages(key)) {
      continue;
    }
    // Every rank must agree on whether the gradient exists and whether it is sparse
    // (same graph on every replica).
    const auto it = per_rank.front().grads.find(key);
    if (it == per_rank.front().grads.end()) {
      for (const StepResult& r : per_rank) {
        PX_CHECK(r.grads.find(key) == r.grads.end()) << "inconsistent gradient presence";
      }
      continue;
    }
    if (!it->second.is_sparse()) {
      ApplyDense(key, per_rank, learning_rate, ranks_per_machine);
      continue;
    }
    if (tap_rank < 0 && observer() != nullptr && num_ranks > 1) {
      tap_rank = static_cast<int>(observe_rotation_++ % num_ranks);
    }
    ApplySparse(key, per_rank, learning_rate, ranks_per_machine, tap_rank);
  }
}

void PsNumericEngine::ApplyDense(int variable, std::span<const StepResult> per_rank,
                                 float learning_rate, int ranks_per_machine) {
  const int num_ranks = static_cast<int>(per_rank.size());
  Aggregation& agg = aggregation_[static_cast<size_t>(variable)];
  auto grad = [&](int rank) -> const Tensor& {
    return per_rank[static_cast<size_t>(rank)].grads.at(variable).dense();
  };
  // A machine's sum is a copy of its first rank's gradient plus the others in rank
  // order, and the global sum is machine 0's sum plus the others in machine order: the
  // float sequence of AllReduce's sum at each level.
  auto sum_machine = [&](int machine, Tensor& out) {
    const int first = machine * ranks_per_machine;
    CopyInto(out, grad(first));
    for (int r = first + 1; r < first + ranks_per_machine; ++r) {
      AddInPlace(out, grad(r));
    }
  };
  sum_machine(0, agg.dense_sum);
  for (int m = 1; m < num_ranks / ranks_per_machine; ++m) {
    if (ranks_per_machine == 1) {
      AddInPlace(agg.dense_sum, grad(m));
      continue;
    }
    sum_machine(m, agg.dense_machine);
    AddInPlace(agg.dense_sum, agg.dense_machine);
  }
  if (config_.dense_aggregation == AggregationMethod::kAverage) {
    ScaleInPlace(agg.dense_sum, 1.0f / static_cast<float>(num_ranks));
  }
  AxpyInPlace(values_.GetMutable(variable), -learning_rate, agg.dense_sum);
}

void PsNumericEngine::ApplySparse(int variable, std::span<const StepResult> per_rank,
                                  float learning_rate, int ranks_per_machine,
                                  int tap_rank) {
  const int num_ranks = static_cast<int>(per_rank.size());
  const int num_machines = num_ranks / ranks_per_machine;
  Tensor& value = values_.GetMutable(variable);
  const int64_t rows = value.shape().dim(0);
  const int64_t width = value.shape().row_elements();
  Aggregation& agg = aggregation_[static_cast<size_t>(variable)];
  if (agg.slots.size() < static_cast<size_t>(rows)) {
    agg.slots.resize(static_cast<size_t>(rows), -1);
  }
  auto grad = [&](int rank) -> const IndexedSlices& {
    return per_rank[static_cast<size_t>(rank)].grads.at(variable).sparse();
  };
  auto pairs_of = [&](int first_rank, int ranks) {
    int64_t pairs = 0;
    for (int r = first_rank; r < first_rank + ranks; ++r) {
      PX_CHECK(grad(r).dense_shape() == value.shape());
      pairs += grad(r).nnz_rows();
    }
    return pairs;
  };
  if (tap_rank >= 0) {
    observer()->ObserveRankAccess(variable,
                                  CountDistinctRows(grad(tap_rank).indices(), agg.slots));
  }

  // Level 1 — local aggregation: each machine sums its ranks' pairs from +0 in (rank,
  // position) order. Skipped when each machine contributes one rank: the raw gradient
  // is the machine's contribution, so the global level reads the raw pairs (coalescing
  // them first would regroup each row's float additions).
  if (ranks_per_machine > 1) {
    if (agg.machines.size() < static_cast<size_t>(num_machines)) {
      agg.machines.resize(static_cast<size_t>(num_machines));
    }
    for (int m = 0; m < num_machines; ++m) {
      const int first = m * ranks_per_machine;
      RowSlotSum& sum = agg.machines[static_cast<size_t>(m)];
      sum.Begin(agg.slots, width, std::min(rows, pairs_of(first, ranks_per_machine)),
                RowSlotSum::Start::kFromZero);
      for (int r = first; r < first + ranks_per_machine; ++r) {
        sum.Add(grad(r));
      }
      sum.End();
    }
  }

  // Level 2 — the global sum in (machine, position) order: a row with one contribution
  // is that contribution as is, any other row starts from +0.
  RowSlotSum& global = agg.global;
  global.Begin(agg.slots, width, std::min(rows, pairs_of(0, num_ranks)),
               RowSlotSum::Start::kKeepSingle);
  for (int m = 0; m < num_machines; ++m) {
    if (ranks_per_machine == 1) {
      global.Add(grad(m));
      continue;
    }
    const RowSlotSum& machine = agg.machines[static_cast<size_t>(m)];
    for (int64_t s = 0; s < machine.size(); ++s) {
      global.Add(machine.row(s), machine.sum(s));
    }
  }
  global.End();

  // The update, row by row in the variable's buffer: no aggregated gradient tensor is
  // materialized, yet the element-wise operations (sum, *= scale, dst -= lr * v) are
  // those of the seed's per-variable pipeline (sum, scale, split by partition, scatter
  // update into each piece; tests/naive_reference.h keeps it as the oracle), so the
  // result is bit-identical to it at every partition count.
  const bool average = config_.sparse_aggregation == AggregationMethod::kAverage;
  const float scale = 1.0f / static_cast<float>(num_ranks);
  float* base = value.mutable_floats().data();
  for (int64_t s = 0; s < global.size(); ++s) {
    SgdUpdateRow(base + global.row(s) * width, global.sum(s), width, learning_rate, average,
                 scale);
  }
  if (observer() != nullptr) {
    observer()->ObserveSparseStep(variable, global.size(), num_ranks);
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
