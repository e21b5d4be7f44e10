// ParallaxRunner — the runtime behind the session API (paper sections 4.1, 4.2).
//
// Given a single-GPU graph, a loss node, and a resource specification, the runner:
//   1. samples a backward pass to classify variables (dense / sparse) and measure alpha,
//   2. assigns each variable a synchronization architecture (hybrid rule, section 3.1)
//      and a SyncEngine (registry name; RunnerBuilder::WithEngine overrides per
//      variable), summarized as one SyncPlan,
//   3. runs the partition search for the partitioner-scoped variables routed to PS
//      (section 3.2): uniform (one shared P) or per-variable (a PartitionPlan found by
//      coordinate descent at each variable's measured alpha,
//      PartitionSearchMode::kPerVariable), and stamps each variable's own partition
//      count onto the SyncPlan,
//   4. transforms the graph (section 4.3) on request — distributed_graph() returns the
//      DistributedGraph of the layout in force,
//   5. trains: each Step() executes every GPU replica's forward/backward on its shard of
//      the batch (numerics are real) — in a synchronous step the replicas run at once,
//      one rank per task on the kernel pool (PARALLAX_THREADS lanes), each on its own
//      ExecScratch against the shared step-start view (with one lane, in rank order on
//      one scratch), with the loss summed in rank order after the join, so results are
//      bit-identical at every lane count — hands
//      the per-rank results to every prepared SyncEngine, and advances the simulated
//      clock by the iteration's task-graph makespan,
//   6. adapts (optional, WithAdaptivePartitioning): a SparsityMonitor folds the nnz
//      each engine observed into per-variable measured alphas, and on drift the
//      partition search re-runs against the measured workload, swapping the layout
//      via Repartition when the simulated win clears the hysteresis margin and
//      amortizes the migration's shard-byte cost — which is charged to the simulated
//      clock — before the loop could revisit the decision (docs/adaptivity.md).
//
// The runner therefore produces both a *learning curve* (real losses/parameters) and a
// *time axis* (simulated seconds) — the two ingredients of the paper's Figure 7.
//
// The resource set is NOT fixed for the runner's life: Rescale(ResourceSpec) swaps the
// worker/server membership mid-training — values are untouched, the
// partition/placement search re-runs against the new topology, and the shard
// migration's bytes are charged to the simulated clock (docs/elasticity.md). Checkpoint/RestoreFrom
// (WithCheckpoint) add crash recovery with replay bounded by the checkpoint interval.
//
// Every search — startup, adaptive, rescale — is one planning query (PlannerQuery)
// answered by one dispatch, GraphRunner::Plan: the shared PlannerService when
// WithPlanner is set, SearchPlan on the runner's own arenas otherwise. Every layout
// reaches the variables through ApplyPlanToVariables (core/analysis.h).
//
// Engines are reached exclusively through the SyncEngine interface
// (core/sync_engine.h); the runner never names a concrete engine type.
// Repartition(plan) swaps the partition layout mid-training (values preserved): every
// engine is re-Prepared, which only refreshes its configuration.
#ifndef PARALLAX_SRC_CORE_RUNNER_H_
#define PARALLAX_SRC_CORE_RUNNER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/core/resources.h"
#include "src/core/sparsity_monitor.h"
#include "src/core/sync_engine.h"
#include "src/core/transform.h"
#include "src/graph/checkpoint.h"
#include "src/graph/executor.h"

namespace parallax {

class PlannerService;
struct PlannerQuery;

// Routes every variable whose name matches `pattern` (GlobMatch: '*'/'?') to the
// registered engine `engine`. Later overrides win; unmatched variables follow the
// hybrid rule ("ps" for sparse, "ar" for dense / high-alpha sparse).
struct EngineOverride {
  std::string pattern;
  std::string engine;
};

// Periodic checkpointing (RunnerBuilder::WithCheckpoint): the crash-recovery half of
// elasticity (docs/elasticity.md). Every interval_steps applied steps the runner
// writes the full variable state plus the training clock to `path`; a rank death
// therefore replays at most interval_steps steps after RestoreFrom. Writes and reads
// charge the checkpoint's bytes over disk_bandwidth to the *simulated* clock — the
// recovery cost is honest while the numerics stay untouched.
struct CheckpointConfig {
  std::string path;
  // 0 = no periodic writes; Checkpoint() still works on demand.
  int interval_steps = 0;
  // Bytes per second of the checkpoint store (simulated-clock charge only).
  double disk_bandwidth = 2e9;
};

// One entry of the rescale trail: a membership change GraphRunner::Rescale performed.
// Both seconds are measured on the NEW topology, so adopted_seconds <= incumbent_seconds
// always holds — Rescale keeps the incumbent layout unless the re-search beats it.
struct RescaleEvent {
  int64_t step = 0;
  int from_machines = 0;
  int to_machines = 0;
  int from_ranks = 0;
  int to_ranks = 0;
  PartitionPlan from_plan;
  PartitionPlan to_plan;
  double incumbent_seconds = 0.0;  // old layout simulated on the new cluster
  double adopted_seconds = 0.0;    // layout in force after the rescale
  double migration_seconds = 0.0;  // shard-move estimate charged to the clock
};

struct ParallaxConfig {
  AggregationMethod dense_aggregation = AggregationMethod::kAverage;
  AggregationMethod sparse_aggregation = AggregationMethod::kAverage;
  // Use local (per-machine) aggregation and machine-level pulls for PS variables.
  bool local_aggregation = true;
  double alpha_dense_threshold = 0.8;
  // Automatic partition search for partitioner-scoped variables; when disabled,
  // manual_plan is applied directly (its default, Uniform(1), keeps every variable
  // whole).
  bool auto_partition = true;
  PartitionPlan manual_plan = PartitionPlan::Uniform(1);
  // Uniform (one shared P, the default) or per-variable (a PartitionPlan found by
  // coordinate descent) — applies to both the startup search and adaptive re-searches.
  PartitionSearchMode search_mode = PartitionSearchMode::kUniform;
  // The partition search's options. Each search sets its starting point itself
  // (initial_partitions: the machine count, or the current plan's largest count for an
  // adaptive re-search) and whether it warm-starts (warm_start: only an adaptive
  // re-search whose drift is confined to one variable; start-up and rescale searches
  // never do). search.placement, per-variable search only, also searches each
  // variable's shard *placement* (which server machine hosts each piece) against the
  // cluster's topology — the greedy bottleneck-utilization seed plus measured-clock swap
  // refinement of SearchPartitionPlan's placement pass. Off by default:
  // placement-oblivious runs stay bit-identical.
  PartitionSearchOptions search{.initial_partitions = 8,
                                .min_partitions = 1,
                                .max_partitions = 1024};
  // Compute profile of one replica's fwd+bwd for the timing plane.
  double gpu_compute_seconds = 4e-3;
  int compute_chunks = 4;
  float learning_rate = 0.1f;
  // Hardware parameters (bandwidths, cores); machine/GPU counts come from ResourceSpec.
  ClusterSpec hardware = ClusterSpec::Paper();
  SyncCostParams costs;
  // Per-variable engine routing (normally filled by RunnerBuilder::WithEngine).
  std::vector<EngineOverride> engine_overrides;
  // Adaptive re-partitioning from measured sparsity drift (normally filled by
  // RunnerBuilder::WithAdaptivePartitioning). Disengaged when unset: the runner then
  // attaches no observer and every step is bit-identical to a pre-monitor run.
  std::optional<AdaptivePartitioningPolicy> adaptive_partitioning;
  // Periodic checkpointing (normally filled by RunnerBuilder::WithCheckpoint).
  // Disengaged when unset: Checkpoint()/CheckpointTo still work on demand.
  std::optional<CheckpointConfig> checkpoint;
  // Shared planning front-end (normally filled by RunnerBuilder::WithPlanner). When
  // set, the startup search, adaptive re-searches, and rescale re-searches route
  // through the service's cache/coalescing instead of searching on the private arena.
  // Both run the same SearchPlan; the service runs it at bucket-representative alphas,
  // so its answer equals the private search's when its alpha_quantum is 0, and a
  // cache hit is identical to a fresh service search at the same key.
  // Unset = the private-arena path, the default.
  std::shared_ptr<PlannerService> planner;
};

class GraphRunner {
 public:
  GraphRunner(const Graph* graph, NodeId loss, const ResourceSpec& resources,
              ParallaxConfig config);

  // Neither copyable nor movable: the replica fan-out's body captures `this`.
  GraphRunner(const GraphRunner&) = delete;
  GraphRunner& operator=(const GraphRunner&) = delete;
  GraphRunner(GraphRunner&&) = delete;
  GraphRunner& operator=(GraphRunner&&) = delete;

  // One synchronous data-parallel step; per_rank_feeds[r] is rank r's mini-batch shard.
  // Returns the mean loss across replicas.
  float Step(const std::vector<FeedMap>& per_rank_feeds);

  // Forward evaluation of `fetch` on the chief's current variable view.
  Tensor Evaluate(const FeedMap& feeds, NodeId fetch);

  // Elastic re-partitioning: swaps the partition layout mid-training. Values are
  // preserved bit-for-bit: every engine is re-Prepared, which only refreshes its
  // configuration, and the timing plane is rebuilt for the new layout.
  void Repartition(const PartitionPlan& plan);

  // Elastic membership change (docs/elasticity.md): workers and servers join or leave
  // mid-training. Values are preserved bit-for-bit: every engine is re-Prepared with
  // the new rank count and layout, which moves no value. The partition and
  // placement search re-runs against the NEW cluster's topology, and the result is
  // adopted only if it beats the incumbent layout simulated on that same topology
  // (placements referencing departed machines are cleared first). The shard-migration
  // estimate — placement-aware, surviving machines keep their indices so stay-put
  // shards are free — is charged to the simulated clock, and the monitor (if any)
  // re-anchors its baselines like an adopted drift verdict. Requires an initialized
  // runner (the first Step samples the graph) and a homogeneous non-empty spec.
  Status Rescale(const ResourceSpec& resources);

  // Writes the full variable state + training clock to the configured checkpoint path
  // (FailedPrecondition without WithCheckpoint). Charges the file's bytes over the
  // configured disk bandwidth to the simulated clock.
  Status Checkpoint();
  // Same, to an explicit path (works without a CheckpointConfig).
  Status CheckpointTo(const std::string& path);
  // Loads a checkpoint into the live engines: values replace the current state, the
  // step counter and simulated clock resume from the stored metadata plus the read
  // charge. On an uninitialized runner the restore is deferred: the first Step samples
  // the restored values and applies them once the engines exist — replay after a rank
  // death is therefore bit-for-bit (partition layout never affects numerics).
  Status RestoreFrom(const std::string& path);

  // ---- introspection ----
  int num_ranks() const { return resources_.total_gpus(); }
  const std::vector<VariableSync>& assignment() const;
  const SyncPlan& plan() const;
  // The prepared engine registered under `name`, or nullptr if the plan routes no
  // variable to it.
  SyncEngine* engine(const std::string& name) const;
  // The transformed graph (section 4.3) of the layout in force, built on each call:
  // nothing executes it, so the runner keeps none.
  DistributedGraph distributed_graph() const;
  // The partition layout in force: the manual plan or the startup search's result,
  // until Repartition, the adaptive loop or Rescale adopts another.
  const PartitionPlan& partition_plan() const { return partition_plan_; }
  // The uniform sweep of the startup search, in either mode (in per-variable mode the
  // one that seeded the descent). Unset when no search ran.
  const std::optional<PartitionSearchResult>& partition_search() const { return search_result_; }
  // The per-variable search's full result (plan, measured seconds, uniform baseline).
  // Set only when the startup search ran in PartitionSearchMode::kPerVariable and had
  // a variable to search. A shared planner's answer is the same result, searched at
  // its bucket-representative alphas.
  const std::optional<PartitionPlanSearchResult>& plan_search() const {
    return plan_search_result_;
  }
  double simulated_seconds() const { return simulated_seconds_; }
  int64_t iterations() const { return iterations_; }
  // The adaptive loop's measurement and decision trail (measured alphas per variable,
  // every re-search verdict). Null unless the config enables adaptive partitioning and
  // the plan routes at least one sparse variable to a PS-family engine.
  const SparsityMonitor* sparsity_monitor() const { return monitor_.get(); }
  // Repartitions the adaptive loop performed (0 without a monitor).
  int adaptive_repartitions() const {
    return monitor_ != nullptr ? monitor_->repartition_count() : 0;
  }
  // The membership in force (the constructor's spec until Rescale swaps it).
  const ResourceSpec& resources() const { return resources_; }
  // Every membership change performed, oldest first.
  const std::vector<RescaleEvent>& rescale_trail() const { return rescale_trail_; }
  int rescales() const { return static_cast<int>(rescale_trail_.size()); }
  // Step at which the last checkpoint was written (or restored from); -1 if none.
  int64_t last_checkpoint_step() const { return last_checkpoint_step_; }
  int checkpoints_written() const { return checkpoints_written_; }
  // The chief worker's view of all variables (a fresh snapshot of every engine's View).
  VariableStore WorkerView() const;

 private:
  // Leaves its samples in step_results_, one per sampled rank from rank 0 on.
  void InitializeFromSamples(const std::vector<FeedMap>& per_rank_feeds);
  // Fan-out indices [begin, end) of the synchronous step in flight, one ParallelFor
  // chunk: index i runs rank r = step_first_rank_ + i against *step_view_ on
  // (*step_feeds_)[r] into step_results_[r], on the scratch of index `begin`. Writes
  // nothing another chunk reads, so chunks may run on different lanes.
  void RunReplicas(int64_t begin, int64_t end);
  // Union of every engine's View() — tensors may share engine buffers (valid until the
  // next ApplyStep/Prepare), which is exactly the lifetime the step path needs.
  VariableStore ComposeView() const;
  // Rebuilds the timing simulator from plan_.
  void RebuildTimingPlane();
  // Simulator configuration shared by the partition search, the training-time timing
  // plane, and the adaptive re-search.
  IterationSimConfig MakeSimConfig() const;
  // plan_.variables with `plan` applied through ApplyPlanToVariables (analysis.h): each
  // partitioner-scoped PS-family variable gets the plan's count for its name, capped at
  // its row count; everything else untouched.
  std::vector<VariableSync> VariablesWithPartitions(const PartitionPlan& plan) const;
  // True when some variable is routed to PS and partitioner-scoped — the variables a
  // plan can re-shard (PlannerVariable::partitioned). Without one, every candidate
  // layout is the same and no search runs.
  bool HasPartitionedVariable() const;
  // Mean simulated iteration seconds of `plan` on this runner's cluster, alphas and
  // arena — the clock Rescale and MaybeAdapt compare candidates on.
  double MeasurePlan(const PartitionPlan& plan);
  // Cost-model estimate of swapping layout `from` for `to`, placement-aware: both
  // layouts are resolved to effective shard servers (ResolveShardServers) against their
  // own machine counts, and only the bytes whose owning server actually changes move —
  // charged over the actual path's bottleneck link (NIC within a rack, min(NIC, spine)
  // across racks; a piece staying on its server moves nothing). Every piece that sends
  // or receives bytes costs one round of request handling. `topology` must be the
  // larger cluster's (its machine indices cover both sides — survivors keep their
  // indices, so a shard on a surviving server moves nothing). MaybeAdapt passes one
  // membership twice; Rescale passes the old and the new.
  double MigrationSecondsBetween(const std::vector<VariableSync>& from, int from_machines,
                                 const std::vector<VariableSync>& to, int to_machines,
                                 const Topology& topology) const;
  // Packages this runner's current search inputs (routed variables with their drift
  // flags, search mode, cluster, sim config, options starting at initial_partitions,
  // without a warm start) as one planning query. The query fully determines the search
  // outcome; alphas are the plan's current (startup-sampled or monitor-measured) ones,
  // and the per-variable search's targets follow from the routing (SearchTargets),
  // engine overrides respected. Requires plan_.variables to be routed, which every call
  // site guarantees.
  PlannerQuery MakePlannerQuery(int initial_partitions) const;
  // The one search dispatch: the shared PlannerService when config_.planner is set,
  // SearchPlan on this runner's arena otherwise. Either way the result is the search's
  // own, and one search line is logged.
  PartitionPlanSearchResult Plan(const PlannerQuery& query);
  // Creates the sparsity monitor and attaches it to the engines, when the config asks
  // for adaptive partitioning and the plan has monitorable variables.
  void MaybeStartMonitor();
  // The adaptive loop's per-step tail: fold observations, check drift, re-search
  // through Plan (uniform or per-variable per config_.search_mode), and Repartition
  // when the simulated win clears the hysteresis margin AND amortizes the migration
  // cost — which is then charged to the simulated clock — within the cooldown window.
  void MaybeAdapt();

  const Graph* graph_;
  NodeId loss_;
  ResourceSpec resources_;
  ParallaxConfig config_;
  Executor executor_;
  // Gradient buffer plan: backward-pass scratch reused by the sampling passes, the
  // sequential-arrival loop and the synchronous fan-out's chunk at index 0 (every rank
  // when the pool has one lane).
  ExecScratch exec_scratch_;
  // Scratch of the synchronous fan-out's other chunks (a chunk starting at index i > 0
  // uses rank_scratch_[i - 1]); resized to num_ranks() - 1 every step, so a Rescale
  // grows or shrinks it with the membership.
  std::vector<ExecScratch> rank_scratch_;
  // Per-rank StepResults reused across training steps (RunStepInto recycles their map
  // nodes and gradient storage, so steady-state steps stay off the allocator). Engines
  // must not retain references into them past ApplyStep. The first step's sampled
  // ranks start here.
  std::vector<StepResult> step_results_;
  // The synchronous step in flight, read by RunReplicas: set before the fan-out and
  // cleared after the join. step_first_rank_ is the first rank the fan-out computes
  // (above 0 only on the first step, whose samples computed the ranks below it).
  const VariableStore* step_view_ = nullptr;
  const std::vector<FeedMap>* step_feeds_ = nullptr;
  int64_t step_first_rank_ = 0;
  // The fan-out's ParallelFor body, built once and capturing only `this`, so a step
  // hands the pool a persistent callable instead of allocating one.
  const std::function<void(int64_t, int64_t)> replica_body_ =
      [this](int64_t begin, int64_t end) { RunReplicas(begin, end); };

  bool initialized_ = false;
  std::unordered_map<int, VariableSparsity> sparsity_;
  SyncPlan plan_;
  // Prepared engines, in order of first appearance in the plan.
  std::vector<std::unique_ptr<SyncEngine>> engines_;
  std::optional<PartitionSearchResult> search_result_;
  std::optional<PartitionPlanSearchResult> plan_search_result_;
  // The layout in force for partitioner-scoped sparse variables (uniform until a
  // per-variable search or Repartition(plan) says otherwise).
  PartitionPlan partition_plan_;
  ClusterSpec cluster_spec_;

  // One arena for the partition search and the training-time timing plane: cached
  // collective schedules and task storage persist for the runner's lifetime.
  std::unique_ptr<SimulationArena> sim_arena_;
  std::unique_ptr<IterationSimulator> timing_;
  std::unique_ptr<Cluster> cluster_;
  double simulated_seconds_ = 0.0;
  int64_t iterations_ = 0;

  // Adaptive re-partitioning: engines report observed nnz here; MaybeAdapt reads the
  // EWMAs back. Engines hold a raw pointer to the monitor, so it must outlive them
  // within any single step (both live for the runner's lifetime once created).
  std::unique_ptr<SparsityMonitor> monitor_;

  // Elasticity state. rescale_trail_ records every membership change;
  // pending_restore_ holds a checkpoint loaded before the first Step (applied to the
  // engines the moment they exist, inside InitializeFromSamples).
  std::vector<RescaleEvent> rescale_trail_;
  struct PendingRestore {
    VariableStore store;
    CheckpointMeta meta;
    double read_seconds = 0.0;
  };
  std::optional<PendingRestore> pending_restore_;
  int64_t last_checkpoint_step_ = -1;
  int checkpoints_written_ = 0;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_RUNNER_H_
