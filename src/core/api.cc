#include "src/core/api.h"

#include "src/base/strings.h"

namespace parallax {

RunnerBuilder::RunnerBuilder(const Graph* graph, NodeId loss)
    : graph_(graph), loss_(loss) {}

RunnerBuilder& RunnerBuilder::WithResources(const std::string& resource_info) {
  StatusOr<ResourceSpec> parsed = ParseResourceSpec(resource_info);
  if (!parsed.ok()) {
    resources_status_ = parsed.status();
    has_resources_ = false;
    return *this;
  }
  return WithResources(std::move(parsed).value());
}

RunnerBuilder& RunnerBuilder::WithResources(ResourceSpec resources) {
  resources_ = std::move(resources);
  resources_status_ = Status::Ok();
  has_resources_ = true;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithEngine(const std::string& variable_pattern,
                                         const std::string& engine) {
  config_.engine_overrides.push_back({variable_pattern, engine});
  return *this;
}

RunnerBuilder& RunnerBuilder::WithSearch(const PartitionSearchOptions& search) {
  config_.search = search;
  config_.auto_partition = true;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithSearchMode(PartitionSearchMode mode) {
  config_.search_mode = mode;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithPlacementSearch(bool enabled) {
  config_.search.placement = enabled;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithPartitionPlan(PartitionPlan plan) {
  config_.auto_partition = false;
  config_.manual_plan = std::move(plan);
  return *this;
}

RunnerBuilder& RunnerBuilder::WithAdaptivePartitioning(AdaptivePartitioningPolicy policy) {
  config_.adaptive_partitioning = policy;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithCheckpoint(std::string path, int interval_steps,
                                             double disk_bandwidth) {
  CheckpointConfig checkpoint;
  checkpoint.path = std::move(path);
  checkpoint.interval_steps = interval_steps;
  checkpoint.disk_bandwidth = disk_bandwidth;
  config_.checkpoint = std::move(checkpoint);
  return *this;
}

RunnerBuilder& RunnerBuilder::WithPlanner(std::shared_ptr<PlannerService> planner) {
  config_.planner = std::move(planner);
  return *this;
}

RunnerBuilder& RunnerBuilder::WithLearningRate(float learning_rate) {
  config_.learning_rate = learning_rate;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithLocalAggregation(bool enabled) {
  config_.local_aggregation = enabled;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithAggregation(AggregationMethod dense,
                                              AggregationMethod sparse) {
  config_.dense_aggregation = dense;
  config_.sparse_aggregation = sparse;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithAlphaThreshold(double alpha_dense_threshold) {
  config_.alpha_dense_threshold = alpha_dense_threshold;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithHardware(const ClusterSpec& hardware) {
  config_.hardware = hardware;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithSyncCosts(const SyncCostParams& costs) {
  config_.costs = costs;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithCompute(double gpu_compute_seconds, int compute_chunks) {
  config_.gpu_compute_seconds = gpu_compute_seconds;
  config_.compute_chunks = compute_chunks;
  return *this;
}

RunnerBuilder& RunnerBuilder::WithConfig(ParallaxConfig config) {
  config_ = std::move(config);
  return *this;
}

StatusOr<std::unique_ptr<GraphRunner>> RunnerBuilder::Build() const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("graph must not be null");
  }
  if (!resources_status_.ok()) {
    return resources_status_;
  }
  if (!has_resources_) {
    return Status::InvalidArgument("no resources: call WithResources before Build");
  }
  if (!resources_.IsHomogeneous()) {
    return Status::InvalidArgument(
        "every machine must contribute the same number of GPUs");
  }
  for (const EngineOverride& override : config_.engine_overrides) {
    if (override.pattern.empty()) {
      return Status::InvalidArgument("WithEngine: empty variable pattern");
    }
    if (!SyncEngineRegistry::Global().Contains(override.engine)) {
      return Status::InvalidArgument(StrFormat(
          "WithEngine: unknown sync engine '%s' (registered: %s)",
          override.engine.c_str(),
          Join(SyncEngineRegistry::Global().Names(), ", ").c_str()));
    }
  }
  // PartitionPlan's own invariants guarantee every manual_plan count is >= 1. The
  // search options and the timing plane's inputs are checked here, not by the first
  // Step's PX_CHECKs.
  if (Status search = ValidateSearchOptions(config_.search); !search.ok()) {
    return Status::InvalidArgument("WithSearch: " + search.message());
  }
  if (Status timing = ValidateTimingInputs(resources_.ToClusterSpec(config_.hardware),
                                           config_.gpu_compute_seconds, config_.costs);
      !timing.ok()) {
    return Status::InvalidArgument("WithHardware/WithCompute/WithSyncCosts: " +
                                   timing.message());
  }
  if (config_.adaptive_partitioning.has_value()) {
    const AdaptivePartitioningPolicy& policy = *config_.adaptive_partitioning;
    if (policy.ewma_decay <= 0.0 || policy.ewma_decay > 1.0) {
      return Status::InvalidArgument(
          "WithAdaptivePartitioning: ewma_decay must be in (0, 1]");
    }
    if (policy.drift_threshold < 0.0 || policy.hysteresis < 0.0) {
      return Status::InvalidArgument(
          "WithAdaptivePartitioning: drift_threshold and hysteresis must be >= 0");
    }
    if (policy.warmup_steps < 0 || policy.check_interval < 1 || policy.cooldown_steps < 0) {
      return Status::InvalidArgument(
          "WithAdaptivePartitioning: warmup/cooldown must be >= 0 and "
          "check_interval >= 1");
    }
  }
  if (config_.checkpoint.has_value()) {
    const CheckpointConfig& checkpoint = *config_.checkpoint;
    if (checkpoint.path.empty()) {
      return Status::InvalidArgument("WithCheckpoint: empty checkpoint path");
    }
    if (checkpoint.interval_steps < 0) {
      return Status::InvalidArgument(
          "WithCheckpoint: interval_steps must be >= 0 (0 = on-demand only)");
    }
    if (!(checkpoint.disk_bandwidth > 0.0)) {
      return Status::InvalidArgument("WithCheckpoint: disk_bandwidth must be > 0");
    }
  }
  return std::make_unique<GraphRunner>(graph_, loss_, resources_, config_);
}

StatusOr<std::unique_ptr<GraphRunner>> GetRunner(const Graph* graph, NodeId loss,
                                                 const std::string& resource_info,
                                                 ParallaxConfig config) {
  return RunnerBuilder(graph, loss)
      .WithConfig(std::move(config))
      .WithResources(resource_info)
      .Build();
}

}  // namespace parallax
