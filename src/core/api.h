// The Parallax session API.
//
// RunnerBuilder is the front door: name the resources, optionally route variables to
// synchronization engines by name pattern, tune the search, Build().
//
//   Graph graph;
//   auto ids = graph.Placeholder("ids", DataType::kInt64);
//   {
//     PartitionerScope partitioner(graph);               // parallax.partitioner()
//     emb = graph.Variable("embedding", init);
//   }
//   ... build loss ...
//   auto runner = RunnerBuilder(&graph, loss)
//                     .WithResources("m0:0,1;m1:0,1")
//                     .WithEngine("emb*", "ps")          // optional per-variable routing
//                     .WithLearningRate(0.5f)
//                     .Build();
//   for (...) runner.value()->Step(ShardFeeds(...));
//
// GetRunner — the paper's 3-call get_runner (Figure 3) — remains as a thin
// compatibility shim over the builder: GetRunner(graph, loss, resource_info, config)
// is WithConfig(config) + WithResources(resource_info) + Build().
//
// Data sharding (parallax.shard) lives with the dataset types in src/data/dataset.h.
// PartitionerScope (the parallax.partitioner() context) is defined alongside Graph in
// src/graph/graph.h: it is part of graph *construction*, which is why user code that
// only builds models does not need the runner layers.
#ifndef PARALLAX_SRC_CORE_API_H_
#define PARALLAX_SRC_CORE_API_H_

#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/core/runner.h"

namespace parallax {

// Builder-style session construction. Every With* returns *this for chaining; Build()
// validates (resources present and homogeneous, engine names registered, search,
// adaptivity and checkpoint options in range, and the cluster, compute time and cost
// constants the timing plane simulates — ValidateTimingInputs) and returns the runner
// or the first error.
class RunnerBuilder {
 public:
  RunnerBuilder(const Graph* graph, NodeId loss);

  // Resource-info string, "host:gpu,gpu;host:gpu,gpu" (the paper's resource_info_file).
  RunnerBuilder& WithResources(const std::string& resource_info);
  RunnerBuilder& WithResources(ResourceSpec resources);

  // Routes variables whose name matches `variable_pattern` (GlobMatch: '*'/'?') to the
  // engine registered under `engine` ("ps", "ar", "async_ps", or anything registered in
  // SyncEngineRegistry). Later calls win on overlap; unmatched variables follow the
  // hybrid rule.
  RunnerBuilder& WithEngine(const std::string& variable_pattern, const std::string& engine);

  // Partition search options (auto partitioning stays on). Replaces every search
  // option, the placement bit (`search.placement`) included, so a WithPlacementSearch
  // before it is overridden. Search-mode selection is orthogonal: WithSearchMode picks
  // uniform (one shared P, the default) vs per-variable (a PartitionPlan via coordinate
  // descent at each variable's measured alpha). WithSearch alone keeps the uniform
  // mode — it is an exact shim for the historical behavior. A runner ignores
  // `search.initial_partitions`: it starts each search at the machine count, or, for an
  // adaptive re-search, at the current plan's largest count. It ignores
  // `search.warm_start` too: start-up and rescale searches start cold, and an adaptive
  // re-search warm-starts exactly when its drift is confined to one variable.
  RunnerBuilder& WithSearch(const PartitionSearchOptions& search);
  RunnerBuilder& WithSearchMode(PartitionSearchMode mode);
  // Sets `search.placement`. Per-variable mode only: also search each variable's shard
  // *placement* against the cluster topology (WithHardware's TopologySpec) — greedy
  // bottleneck-utilization seeding plus simulated-clock swap refinement; the adopted
  // plan carries the chosen servers and the PS engines pin their shards accordingly.
  // Off by default.
  RunnerBuilder& WithPlacementSearch(bool enabled = true);
  // Fixed layout; disables the automatic search. The plan's count for each
  // partitioner-scoped PS variable is applied row-capped; variables the plan does not
  // name get its default count. One P for every variable is
  // WithPartitionPlan(PartitionPlan::Uniform(p)).
  RunnerBuilder& WithPartitionPlan(PartitionPlan plan);

  // Closes the sparsity loop: the runner monitors each sparse PS variable's measured
  // alpha (EWMA over the nnz the aggregation path observes), re-runs the partition
  // search — uniform or per-variable, per WithSearchMode — when the measurement drifts
  // past the policy threshold, and swaps the partition layout mid-training
  // (GraphRunner::Repartition) when the simulated iteration time improves by more than
  // the hysteresis margin and the win amortizes the layout migration's cost within the
  // cooldown window. Decision trail and measured alphas:
  // GraphRunner::sparsity_monitor(). See docs/adaptivity.md.
  RunnerBuilder& WithAdaptivePartitioning(AdaptivePartitioningPolicy policy = {});

  // Periodic checkpointing (docs/elasticity.md): every `interval_steps` applied steps
  // the runner writes the full variable state + training clock to `path`
  // (interval_steps == 0: on-demand GraphRunner::Checkpoint() only). A dead run
  // resumes via a fresh runner + RestoreFrom(path) and replays at most interval_steps
  // steps, bit-for-bit. Writes/reads charge the file's bytes over `disk_bandwidth`
  // to the *simulated* clock; the numerics are untouched.
  RunnerBuilder& WithCheckpoint(std::string path, int interval_steps,
                                double disk_bandwidth = 2e9);

  // Routes this session's partition searches (startup, adaptive re-search, rescale)
  // through a shared PlannerService: identical queries across sessions hit its plan
  // cache or coalesce onto one in-flight search instead of simulating again. Pass the
  // same service to every session of a multi-tenant process (docs/planner_service.md).
  // Unset keeps the private-arena search — the default and the bit-for-bit oracle.
  RunnerBuilder& WithPlanner(std::shared_ptr<PlannerService> planner);

  RunnerBuilder& WithLearningRate(float learning_rate);
  RunnerBuilder& WithLocalAggregation(bool enabled);
  RunnerBuilder& WithAggregation(AggregationMethod dense, AggregationMethod sparse);
  RunnerBuilder& WithAlphaThreshold(double alpha_dense_threshold);
  RunnerBuilder& WithHardware(const ClusterSpec& hardware);
  // Calibration constants of the timing plane (server-side accumulation/update rates,
  // per-partition overheads, ...) — the knobs that decide where Equation 1's optimum
  // sits for a given workload.
  RunnerBuilder& WithSyncCosts(const SyncCostParams& costs);
  RunnerBuilder& WithCompute(double gpu_compute_seconds, int compute_chunks);

  // Replaces every knob with `config` (engine overrides included) — the bridge the
  // GetRunner shim rides on. With* calls after this refine the replaced config.
  RunnerBuilder& WithConfig(ParallaxConfig config);

  StatusOr<std::unique_ptr<GraphRunner>> Build() const;

 private:
  const Graph* graph_;
  NodeId loss_;
  bool has_resources_ = false;
  ResourceSpec resources_;
  Status resources_status_ = Status::Ok();
  ParallaxConfig config_;
};

// Compatibility shim for the paper's 3-call API: builds a runner from a resource-info
// string and a monolithic ParallaxConfig via RunnerBuilder.
StatusOr<std::unique_ptr<GraphRunner>> GetRunner(const Graph* graph, NodeId loss,
                                                 const std::string& resource_info,
                                                 ParallaxConfig config = {});

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_API_H_
