#include "src/core/analysis.h"

#include <utility>

#include "src/base/logging.h"

namespace parallax {

std::unordered_map<int, VariableSparsity> AnalyzeSparsity(const Graph& graph, NodeId loss,
                                                          std::span<const StepResult> samples) {
  std::unordered_map<int, GradKind> kinds = graph.AnalyzeGradientKinds(loss);
  std::unordered_map<int, VariableSparsity> result;
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    const VariableDef& def = graph.variables()[v];
    VariableSparsity info;
    info.kind = kinds[static_cast<int>(v)];
    info.num_elements = def.shape.num_elements();
    info.row_elements = def.shape.rank() >= 1 ? def.shape.row_elements() : 1;
    if (info.kind == GradKind::kSparse) {
      double alpha_sum = 0.0;
      int alpha_count = 0;
      for (const StepResult& step : samples) {
        auto it = step.grads.find(static_cast<int>(v));
        if (it != step.grads.end() && it->second.is_sparse()) {
          alpha_sum += it->second.sparse().AccessRatio();
          ++alpha_count;
        }
      }
      info.alpha = alpha_count > 0 ? alpha_sum / alpha_count : 1.0;
    }
    result[static_cast<int>(v)] = info;
  }
  return result;
}

std::vector<VariableSpec> ToVariableSpecs(
    const Graph& graph, const std::unordered_map<int, VariableSparsity>& info) {
  std::vector<VariableSpec> specs;
  specs.reserve(graph.variables().size());
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    const VariableDef& def = graph.variables()[v];
    const VariableSparsity& sparsity = info.at(static_cast<int>(v));
    VariableSpec spec;
    spec.name = def.name;
    spec.num_elements = sparsity.num_elements;
    spec.row_elements = sparsity.row_elements;
    spec.is_sparse = sparsity.kind == GradKind::kSparse;
    spec.alpha = spec.is_sparse ? sparsity.alpha : 1.0;
    specs.push_back(std::move(spec));
  }
  return specs;
}

SyncMethod DecideSyncMethod(const VariableSparsity& info, const HybridOptions& options) {
  if (info.kind != GradKind::kSparse) {
    return SyncMethod::kArAllReduce;
  }
  if (info.alpha >= options.alpha_dense_threshold) {
    return SyncMethod::kArAllReduce;
  }
  return SyncMethod::kPs;
}

std::vector<PlannerVariable> PlannerVariablesOf(const Graph& graph,
                                                const std::vector<VariableSync>& variables) {
  PX_CHECK_EQ(variables.size(), graph.variables().size());
  std::vector<PlannerVariable> result;
  result.reserve(variables.size());
  for (size_t v = 0; v < variables.size(); ++v) {
    const VariableDef& def = graph.variables()[v];
    PlannerVariable variable;
    variable.sync = variables[v];
    variable.partitioned =
        variables[v].method == SyncMethod::kPs && def.partitioner_scope;
    variable.rows = def.shape.rank() >= 1 ? def.shape.dim(0) : 1;
    result.push_back(std::move(variable));
  }
  return result;
}

std::vector<VariableSync> ApplyPlanToVariables(const std::vector<PlannerVariable>& variables,
                                               const PartitionPlan& plan) {
  std::vector<VariableSync> result;
  result.reserve(variables.size());
  for (const PlannerVariable& v : variables) {
    VariableSync sync = v.sync;
    if (v.partitioned) {
      sync.partitions = RowCappedPartitions(plan.For(sync.spec.name), v.rows);
      const std::vector<int>* placement = plan.PlacementFor(sync.spec.name);
      if (placement != nullptr &&
          static_cast<int>(placement->size()) == sync.partitions) {
        sync.placement = *placement;
      } else {
        sync.placement.clear();
      }
    }
    result.push_back(std::move(sync));
  }
  return result;
}

std::vector<VariableSync> AssignGraphVariables(
    const Graph& graph, const std::unordered_map<int, VariableSparsity>& info,
    const HybridOptions& options, const PartitionPlan& plan) {
  std::vector<VariableSpec> specs = ToVariableSpecs(graph, info);
  std::vector<VariableSync> assignment;
  assignment.reserve(specs.size());
  for (size_t v = 0; v < specs.size(); ++v) {
    VariableSync sync;
    sync.spec = specs[v];
    sync.method = DecideSyncMethod(info.at(static_cast<int>(v)), options);
    assignment.push_back(std::move(sync));
  }
  return ApplyPlanToVariables(PlannerVariablesOf(graph, assignment), plan);
}

}  // namespace parallax
