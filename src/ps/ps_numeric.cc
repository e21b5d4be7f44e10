#include "src/ps/ps_numeric.h"

#include <algorithm>

#include "src/core/partition_plan.h"
#include "src/tensor/indexed_slices.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {

PsVariable::PsVariable(Tensor initial, int partitions) : shape_(initial.shape()) {
  if (partitions > 1) {
    PX_CHECK_GE(shape_.rank(), 1);
    partition_.emplace(shape_.dim(0), partitions);
    pieces_ = SplitRowsByPartition(initial, *partition_);
  } else {
    pieces_.push_back(initial.Clone());
  }
}

Tensor PsVariable::Materialize() const {
  if (!partition_) {
    return pieces_.front().Clone();
  }
  return StitchPartitions(pieces_, *partition_);
}

void PsVariable::ApplyDenseSgd(const Tensor& grad, float learning_rate) {
  PX_CHECK(grad.shape() == shape_);
  if (!partition_) {
    AxpyInPlace(pieces_.front(), -learning_rate, grad);
    return;
  }
  std::vector<Tensor> grad_pieces = SplitRowsByPartition(grad, *partition_);
  for (size_t p = 0; p < pieces_.size(); ++p) {
    AxpyInPlace(pieces_[p], -learning_rate, grad_pieces[p]);
  }
}

float* PsVariable::MutableRow(int64_t row) {
  const int64_t width = shape_.row_elements();
  if (!partition_) {
    return pieces_.front().mutable_floats().data() + row * width;
  }
  const int piece = partition_->PartitionOfRow(row);
  const int64_t local = row - partition_->RowBegin(piece);
  return pieces_[static_cast<size_t>(piece)].mutable_floats().data() + local * width;
}

PsNumericEngine::PsNumericEngine(const Graph* graph) : graph_(graph) {
  PX_CHECK(graph != nullptr);
  set_name("ps");
}

PsNumericEngine::PsNumericEngine(const Graph* graph, PsNumericConfig config)
    : PsNumericEngine(graph) {
  Reconfigure(std::move(config));
}

PsNumericConfig PsNumericConfigFor(const SyncPlan& plan, const std::string& engine) {
  PsNumericConfig config;
  // The plan's layout is per variable: each entry already carries its own (row-capped)
  // partition count, which is what the shards are split from.
  config.variable_partitions.reserve(plan.variables.size());
  config.variable_placements.reserve(plan.variables.size());
  for (const VariableSync& sync : plan.variables) {
    config.variable_partitions.push_back(sync.partitions);
    config.variable_placements.push_back(sync.placement);
  }
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
  if (!config.variable_partitions.empty()) {
    PX_CHECK_EQ(config.variable_partitions.size(), graph_->variables().size())
        << "variable_partitions must be parallel to the graph's variables";
  }
  if (!config.variable_placements.empty()) {
    PX_CHECK_EQ(config.variable_placements.size(), graph_->variables().size())
        << "variable_placements must be parallel to the graph's variables";
  }
  // Re-preparation preserves values: shards are rebuilt around the current state, not
  // the initializers — what makes a mid-training partition swap a plain re-Prepare.
  // Variables whose partition count does not change are moved over untouched (no
  // materialize + re-split), so swapping a plan that moves one variable costs only
  // that variable's bytes.
  const bool preserve = !variables_.empty();
  std::vector<PsVariable> next;
  next.reserve(graph_->variables().size());
  for (size_t v = 0; v < graph_->variables().size(); ++v) {
    const VariableDef& def = graph_->variables()[v];
    // Only partitioner-scoped variables are split (Figure 3 line 9), each by its own
    // count through the same RowCappedPartitions gate the assigner and the simulator's
    // layout use, so the engine always builds the layout that was timed.
    int partitions = 1;
    if (def.partitioner_scope && def.shape.rank() >= 1 &&
        !config.variable_partitions.empty()) {
      partitions = RowCappedPartitions(config.variable_partitions[v], def.shape.dim(0));
    }
    if (!preserve) {
      next.emplace_back(def.initial_value, partitions);
    } else if (variables_[v].num_partitions() == partitions) {
      next.push_back(std::move(variables_[v]));
    } else {
      next.emplace_back(variables_[v].Materialize(), partitions);
    }
  }
  config_ = std::move(config);
  variables_ = std::move(next);
}

void PsNumericEngine::LoadValues(const VariableStore& values) {
  PX_CHECK_EQ(variables_.size(), graph_->variables().size())
      << "LoadValues before Prepare/Reconfigure";
  for (size_t v = 0; v < variables_.size(); ++v) {
    if (!Manages(static_cast<int>(v)) || !values.Contains(static_cast<int>(v))) {
      continue;
    }
    // The PsVariable constructor splits (or clones) the incoming tensor, so the shards
    // never alias the caller's buffer; the partition count in force is kept.
    variables_[v] =
        PsVariable(values.Get(static_cast<int>(v)), variables_[v].num_partitions());
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
  PX_CHECK(!variables_.empty()) << "ApplyStep before Prepare/configuration";
  const int num_ranks = static_cast<int>(per_rank.size());
  const int ranks_per_machine = config_.local_aggregation ? config_.ranks_per_machine : 1;
  PX_CHECK_EQ(num_ranks % ranks_per_machine, 0)
      << "ranks must fill machines evenly for local aggregation";

  // Dense variables are aggregated one at a time, AllReduce-style; sparse ones are
  // collected and batched through the fused multi-variable aggregation below. Variables
  // are independent (aggregation never mixes them numerically), so the split changes
  // nothing about the values.
  std::vector<int> sparse_vars;
  for (size_t v = 0; v < variables_.size(); ++v) {
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
    variables_[v].ApplyDenseSgd(aggregated, learning_rate);
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
  // into the owning shard row. No aggregated gradient tensor is ever materialized —
  // the element-wise operations (sum in a fresh zero buffer, *= scale, dst -= lr * v)
  // are exactly those of the seed's per-variable pipeline (sum, scale, split by
  // partition, scatter update; tests/naive_reference.h keeps it as the oracle), so the
  // result is bit-identical to it.
  for (size_t i = 0; i < n_vars; ++i) {
    groups[i].inputs.clear();
    for (int m = 0; m < num_machines; ++m) {
      groups[i].inputs.push_back(
          ranks_per_machine > 1
              ? &machine_bundles[static_cast<size_t>(m)][i]
              : &per_rank[static_cast<size_t>(m)].grads.at(variables[i]).sparse());
    }
    PX_CHECK(groups[i].inputs.front()->dense_shape() ==
             variables_[static_cast<size_t>(variables[i])].shape());
  }
  const bool average = config_.sparse_aggregation == AggregationMethod::kAverage;
  const float scale = 1.0f / static_cast<float>(num_ranks);
  // The observation tap: with no observer the stream is asked for nothing and the
  // step is instruction-for-instruction the unobserved one.
  std::vector<int64_t>* unique_out = observer() != nullptr ? &observed_unique_ : nullptr;
  MultiVariableSumStream(groups, &workspace_,
                         [&](int64_t g, int64_t row, const float* values) {
    PsVariable& variable = variables_[static_cast<size_t>(variables[static_cast<size_t>(g)])];
    const int64_t width = variable.shape().row_elements();
    float* dst = variable.MutableRow(row);
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

VariableStore PsNumericEngine::CurrentValues() const {
  VariableStore store;
  for (size_t v = 0; v < variables_.size(); ++v) {
    if (Manages(static_cast<int>(v))) {
      store.Set(static_cast<int>(v), variables_[v].Materialize());
    }
  }
  return store;
}

}  // namespace parallax
