#include "src/core/runner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/base/math.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"
#include "src/service/planner_service.h"

namespace parallax {

GraphRunner::GraphRunner(const Graph* graph, NodeId loss, const ResourceSpec& resources,
                         ParallaxConfig config)
    : graph_(graph),
      loss_(loss),
      resources_(resources),
      config_(std::move(config)),
      executor_(graph) {
  PX_CHECK(graph != nullptr);
  PX_CHECK(resources_.IsHomogeneous())
      << "every machine must contribute the same number of GPUs";
  for (const EngineOverride& override : config_.engine_overrides) {
    PX_CHECK(SyncEngineRegistry::Global().Contains(override.engine))
        << "unknown sync engine '" << override.engine << "' (registered: "
        << Join(SyncEngineRegistry::Global().Names(), ", ") << ")";
  }
}

void GraphRunner::InitializeFromSamples(const std::vector<FeedMap>& per_rank_feeds) {
  // 1. Sample backward passes on the initial values to classify variables and measure
  //    alpha (section 5: gradient type identifies sparsity). A deferred RestoreFrom
  //    supplies the initial values instead: the sampled alphas then describe the
  //    workload at the restored parameters, not a cold start. Sampling only reads, so
  //    it runs on the graph's initial tensors (or the restore's) in place, without a
  //    copy; the engines copy each variable at their first write to it. The samples
  //    stay in step_results_ as the first step's results for their ranks (see Step).
  const VariableStore initial = pending_restore_.has_value()
                                    ? pending_restore_->store
                                    : VariableStore::ShareFrom(*graph_);
  step_results_.resize(std::min<size_t>(per_rank_feeds.size(), 4));
  for (size_t r = 0; r < step_results_.size(); ++r) {
    executor_.RunStepInto(initial, per_rank_feeds[r], loss_, &exec_scratch_,
                          &step_results_[r]);
  }
  sparsity_ = AnalyzeSparsity(*graph_, loss_, step_results_);

  cluster_spec_ = resources_.ToClusterSpec(config_.hardware);
  HybridOptions hybrid{config_.alpha_dense_threshold};

  // 2. The SyncPlan's routing and methods — established BEFORE the search, because
  //    they do not depend on partition counts and the search must simulate the
  //    methods that will actually run (an engine override can move a variable off PS
  //    entirely, which changes what is worth partitioning). Hybrid assignment, then
  //    per-variable engine routing: unmatched variables follow the hybrid rule;
  //    overrides route by name pattern, with the engine's cost hook supplying the
  //    timing-plane method.
  plan_.variables = AssignGraphVariables(*graph_, sparsity_, hybrid, PartitionPlan::Uniform(1));
  plan_.engines.assign(plan_.variables.size(), std::string());
  plan_.num_ranks = num_ranks();
  plan_.ranks_per_machine = cluster_spec_.gpus_per_machine;
  plan_.local_aggregation = config_.local_aggregation;
  plan_.dense_aggregation = config_.dense_aggregation;
  plan_.sparse_aggregation = config_.sparse_aggregation;
  for (size_t v = 0; v < plan_.variables.size(); ++v) {
    plan_.engines[v] = plan_.variables[v].method == SyncMethod::kPs ? "ps" : "ar";
    for (const EngineOverride& override : config_.engine_overrides) {
      if (GlobMatch(plan_.variables[v].spec.name, override.pattern)) {
        plan_.engines[v] = override.engine;
      }
    }
  }

  // Instantiate one engine per distinct name, in order of first appearance, and let
  // each engine's cost hook fix the timing-plane method of the variables it received
  // through an override.
  SyncEngineEnv env{graph_};
  engines_.clear();
  for (size_t v = 0; v < plan_.variables.size(); ++v) {
    int index = -1;
    for (size_t e = 0; e < engines_.size(); ++e) {
      if (engines_[e]->name() == plan_.engines[v]) {
        index = static_cast<int>(e);
        break;
      }
    }
    if (index < 0) {
      index = static_cast<int>(engines_.size());
      engines_.push_back(
          SyncEngineRegistry::Global().CreateChecked(plan_.engines[v], env).value());
    }
    // The hybrid rule already produced a method consistent with the default engines;
    // overridden variables adopt the override target's model.
    const std::string default_engine =
        plan_.variables[v].method == SyncMethod::kPs ? "ps" : "ar";
    if (plan_.engines[v] != default_engine) {
      plan_.variables[v].method =
          engines_[static_cast<size_t>(index)]->CostMethod(sparsity_.at(static_cast<int>(v)).kind);
    }
    // Every variable also adopts its engine's compression model (kNone for the
    // built-ins). Stamped before the partition search so every simulated candidate —
    // startup, adaptive, rescale — prices the compressed wire volume; the stamp rides
    // plan_.variables into every planner query.
    plan_.variables[v].compression =
        engines_[static_cast<size_t>(index)]->CostCompression(
            sparsity_.at(static_cast<int>(v)).kind);
  }

  // 3. Partition search over the simulated training loop (section 3.2), uniform or
  //    per-variable, over the routed methods fixed above — only when some variable
  //    takes a partition count, since otherwise every candidate layout is the same.
  partition_plan_ = config_.manual_plan;
  sim_arena_ = std::make_unique<SimulationArena>();
  if (config_.auto_partition && HasPartitionedVariable()) {
    const PlannerQuery query = MakePlannerQuery(cluster_spec_.num_machines);
    PartitionPlanSearchResult found = Plan(query);
    partition_plan_ = found.plan;
    search_result_ = found.uniform;
    if (!SearchTargets(query).empty()) {
      plan_search_result_ = std::move(found);
    }
  }

  // 4. Stamp the chosen layout onto the plan and hand it to the engines.
  plan_.variables = VariablesWithPartitions(partition_plan_);
  for (const std::unique_ptr<SyncEngine>& engine : engines_) {
    engine->Prepare(plan_);
  }

  // 5.+6. The timing plane for this training job (the transformed graph is built on
  // request, distributed_graph()).
  RebuildTimingPlane();
  cluster_ = std::make_unique<Cluster>(cluster_spec_);
  MaybeStartMonitor();

  // Deferred RestoreFrom: the engines exist now, so the checkpointed values replace
  // the freshly initialized ones and the training clock resumes where the file says,
  // plus the read charge. Replay from here is bit-for-bit regardless of the layout
  // the search above picked — partitioning never affects numerics.
  if (pending_restore_.has_value()) {
    for (const std::unique_ptr<SyncEngine>& engine : engines_) {
      engine->LoadValues(pending_restore_->store);
    }
    iterations_ = pending_restore_->meta.step;
    simulated_seconds_ =
        pending_restore_->meta.simulated_seconds + pending_restore_->read_seconds;
    last_checkpoint_step_ = pending_restore_->meta.step;
    pending_restore_.reset();
  }
  initialized_ = true;
}

IterationSimConfig GraphRunner::MakeSimConfig() const {
  IterationSimConfig sim_config;
  sim_config.ps_local_aggregation = config_.local_aggregation;
  sim_config.ps_machine_level_pulls = config_.local_aggregation;
  sim_config.costs = config_.costs;
  return sim_config;
}

void GraphRunner::RebuildTimingPlane() {
  timing_ = std::make_unique<IterationSimulator>(cluster_spec_, plan_.variables,
                                                 config_.gpu_compute_seconds,
                                                 config_.compute_chunks, MakeSimConfig(),
                                                 sim_arena_.get());
}

std::vector<VariableSync> GraphRunner::VariablesWithPartitions(
    const PartitionPlan& plan) const {
  return ApplyPlanToVariables(PlannerVariablesOf(*graph_, plan_.variables), plan);
}

bool GraphRunner::HasPartitionedVariable() const {
  const std::vector<PlannerVariable> variables = PlannerVariablesOf(*graph_, plan_.variables);
  return std::any_of(variables.begin(), variables.end(),
                     [](const PlannerVariable& v) { return v.partitioned; });
}

double GraphRunner::MeasurePlan(const PartitionPlan& plan) {
  IterationSimulator sim(cluster_spec_, VariablesWithPartitions(plan),
                         config_.gpu_compute_seconds, config_.compute_chunks,
                         MakeSimConfig(), sim_arena_.get());
  return sim.MeasureIterationSeconds();
}

PlannerQuery GraphRunner::MakePlannerQuery(int initial_partitions) const {
  PlannerQuery query;
  query.variables = PlannerVariablesOf(*graph_, plan_.variables);
  // Warm-start bookkeeping for adaptive re-searches: whether each monitored variable's
  // measured alpha moved past the drift threshold since the last re-anchor. Without a
  // monitor every variable counts as drifted, which disables the warm start (the
  // conservative default).
  if (monitor_ != nullptr) {
    for (int v : monitor_->tracked()) {
      const double baseline = monitor_->baseline_alpha(v);
      const double drift =
          std::abs(monitor_->measured_alpha(v) - baseline) / std::max(baseline, 1e-12);
      query.variables[static_cast<size_t>(v)].drifted =
          drift >= monitor_->policy().drift_threshold;
    }
  }
  query.mode = config_.search_mode;
  query.cluster = cluster_spec_;
  query.sim_config = MakeSimConfig();
  query.gpu_compute_seconds = config_.gpu_compute_seconds;
  query.compute_chunks = config_.compute_chunks;
  query.options = config_.search;
  query.options.initial_partitions = initial_partitions;
  // Start-up and rescale searches have no adopted plan to resume; MaybeAdapt sets its
  // own warm start.
  query.options.warm_start = false;
  return query;
}

PartitionPlanSearchResult GraphRunner::Plan(const PlannerQuery& query) {
  PartitionPlanSearchResult found;
  const char* source = "private";
  if (config_.planner != nullptr) {
    // Shared planning service: the search (or a memoized twin of it) runs on a pooled
    // arena, coalesced with identical queries from other tenants, and its answer is the
    // search's own result. Build validated the options and the timing inputs, and the
    // variables come from the graph and the sampled alphas, so the service accepts the
    // query.
    PlannerResult answer = config_.planner->Plan(query).value();
    found = std::move(answer.search);
    source = answer.cache_hit   ? "shared planner, cache hit"
             : answer.coalesced ? "shared planner, coalesced"
                                : "shared planner";
  } else {
    found = SearchPlan(query, sim_arena_.get());
  }
  PX_LOG(Info) << "partition search (" << source << "): plan " << found.plan.ToString()
               << " at " << found.seconds << "s vs " << found.uniform_seconds
               << "s baseline after " << found.evaluations << " sampling runs";
  return found;
}

double GraphRunner::MigrationSecondsBetween(const std::vector<VariableSync>& from,
                                            int from_machines,
                                            const std::vector<VariableSync>& to,
                                            int to_machines,
                                            const Topology& topology) const {
  PX_CHECK_EQ(to.size(), from.size());
  PX_CHECK_GE(from_machines, 1);
  PX_CHECK_GE(to_machines, 1);
  // Placement-aware estimate: resolve both layouts to effective shard servers with the
  // one ownership rule the simulator and the engines use (ResolveShardServers), then
  // walk each variable's old and new piece ranges in lockstep. Only overlap bytes whose
  // owning server changes move, over the actual path's bottleneck link — a piece that
  // stays put is free even when its neighbours re-split, and a same-rack move never
  // gets charged spine bandwidth it would not use. Every piece that sends or receives
  // any bytes costs one round of request handling. The two layouts may live on
  // different machine counts (a rescale): survivors keep their machine indices, so
  // `topology` must be the larger membership's — it covers every index either side
  // resolves to.
  const std::vector<int> from_servers = ResolveShardServers(from, from_machines);
  const std::vector<int> to_servers = ResolveShardServers(to, to_machines);

  // Element range of piece `piece` out of `count`: the one balanced split the
  // simulator's shards use too (base/math.h).
  auto piece_range = [](int64_t elements, int count, int piece) {
    return std::pair<int64_t, int64_t>(BalancedSplitBegin(elements, count, piece),
                                       BalancedSplitBegin(elements, count, piece + 1));
  };

  double transfer_seconds = 0.0;
  double request_seconds = 0.0;
  size_t from_base = 0;
  size_t to_base = 0;
  for (size_t v = 0; v < to.size(); ++v) {
    const VariableSync& from_sync = from[v];
    const VariableSync& to_sync = to[v];
    PX_CHECK(from_sync.method == to_sync.method);
    if (from_sync.method != SyncMethod::kPs) {
      continue;
    }
    const size_t from_at = from_base;
    const size_t to_at = to_base;
    from_base += static_cast<size_t>(from_sync.partitions);
    to_base += static_cast<size_t>(to_sync.partitions);

    bool same = from_sync.partitions == to_sync.partitions;
    for (int p = 0; same && p < from_sync.partitions; ++p) {
      same = from_servers[from_at + static_cast<size_t>(p)] ==
             to_servers[to_at + static_cast<size_t>(p)];
    }
    if (same) {
      continue;  // identical shard layout: the engine keeps these shards as-is
    }

    const int64_t elements = std::max<int64_t>(from_sync.spec.num_elements, 1);
    const double bytes_per_element =
        static_cast<double>(from_sync.spec.bytes()) / static_cast<double>(elements);
    // A count change materializes and re-splits the variable: every old piece is torn
    // down and every new piece built, so each costs one round of request handling even
    // when its bytes happen to stay on the same server. A pure placement change keeps
    // the split and touches only the pieces that actually move.
    const bool resplit = from_sync.partitions != to_sync.partitions;
    if (resplit) {
      request_seconds += static_cast<double>(from_sync.partitions + to_sync.partitions) *
                         config_.costs.request_overhead_seconds;
    }
    int sending = -1;    // last old piece charged a send request
    int receiving = -1;  // last new piece charged a receive request
    int p = 0;
    int q = 0;
    while (p < from_sync.partitions && q < to_sync.partitions) {
      const auto [ps, pe] = piece_range(elements, from_sync.partitions, p);
      const auto [qs, qe] = piece_range(elements, to_sync.partitions, q);
      const int64_t overlap = std::min(pe, qe) - std::max(ps, qs);
      const int src = from_servers[from_at + static_cast<size_t>(p)];
      const int dst = to_servers[to_at + static_cast<size_t>(q)];
      if (overlap > 0 && src != dst) {
        transfer_seconds += static_cast<double>(overlap) * bytes_per_element /
                            topology.PathBandwidth(src, dst);
        if (!resplit && sending != p) {
          sending = p;
          request_seconds += config_.costs.request_overhead_seconds;
        }
        if (!resplit && receiving != q) {
          receiving = q;
          request_seconds += config_.costs.request_overhead_seconds;
        }
      }
      if (pe <= qe) {
        ++p;
      } else {
        ++q;
      }
    }
  }
  return transfer_seconds + request_seconds;
}

void GraphRunner::Repartition(const PartitionPlan& plan) {
  PX_CHECK(initialized_) << "Repartition before the first Step";
  PX_CHECK_GE(plan.default_partitions(), 1);
  plan_.variables = VariablesWithPartitions(plan);
  partition_plan_ = plan;
  // A re-Prepare only refreshes each engine's configuration; values never move.
  for (const std::unique_ptr<SyncEngine>& engine : engines_) {
    engine->Prepare(plan_);
  }
  RebuildTimingPlane();
}

Status GraphRunner::Rescale(const ResourceSpec& to) {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "Rescale before the first Step — there is no layout to migrate yet");
  }
  if (to.total_gpus() < 1) {
    return Status::InvalidArgument("Rescale target has no GPUs");
  }
  if (!to.IsHomogeneous()) {
    return Status::InvalidArgument(
        "Rescale target must be homogeneous (same GPU count on every machine)");
  }
  const ClusterSpec to_spec = to.ToClusterSpec(config_.hardware);
  if (to_spec.num_machines == cluster_spec_.num_machines &&
      to_spec.gpus_per_machine == cluster_spec_.gpus_per_machine) {
    // Hostnames may differ; the simulated shape is identical, so nothing migrates.
    resources_ = to;
    return Status::Ok();
  }

  // Snapshot the outgoing membership — the migration estimate needs both sides.
  const std::vector<VariableSync> from_variables = plan_.variables;
  const ClusterSpec from_spec = cluster_spec_;
  const int from_ranks = num_ranks();
  const PartitionPlan from_plan = partition_plan_;

  resources_ = to;
  cluster_spec_ = to_spec;
  plan_.num_ranks = num_ranks();
  plan_.ranks_per_machine = cluster_spec_.gpus_per_machine;

  // A placement naming a departed server is stale intent: clear it before any layout
  // is resolved or simulated on the new cluster, or ResolveShardServers would be
  // handed out-of-range machine indices.
  const auto placements = partition_plan_.placements();
  for (const auto& [name, placement] : placements) {
    bool departed = false;
    for (int server : placement) {
      departed = departed || server >= cluster_spec_.num_machines;
    }
    if (departed) {
      partition_plan_.SetPlacement(name, {});
    }
  }

  // Re-search against the NEW topology, adopting the result only if it simulates
  // faster there than the incumbent layout does — the incumbent never loses to its
  // own re-search, so adopted_seconds <= incumbent_seconds by construction. The found
  // plan is re-measured on this runner's clock at its exact alphas (a shared planner
  // searched at bucket-representative ones), so the best-of stays apples-to-apples.
  const double incumbent_seconds = MeasurePlan(partition_plan_);
  PartitionPlan best_plan = partition_plan_;
  double best_seconds = incumbent_seconds;
  if (config_.auto_partition && HasPartitionedVariable()) {
    PartitionPlan found = Plan(MakePlannerQuery(cluster_spec_.num_machines)).plan;
    const double seconds = MeasurePlan(found);
    if (seconds < best_seconds) {
      best_plan = std::move(found);
      best_seconds = seconds;
    }
  }

  partition_plan_ = best_plan;
  plan_.variables = VariablesWithPartitions(partition_plan_);
  // Every engine re-Prepares with the new rank count and layout. Prepare is
  // value-preserving, which is what makes an immediate N -> M -> N round trip
  // bit-identical; the layout's cost is the migration charge below.
  for (const std::unique_ptr<SyncEngine>& engine : engines_) {
    engine->Prepare(plan_);
  }

  // Charge the shard migration over the larger membership's topology (survivors keep
  // their machine indices, so it covers every index either side resolves to).
  const Topology topology(from_spec.num_machines >= cluster_spec_.num_machines
                              ? from_spec
                              : cluster_spec_);
  const double migration_seconds =
      MigrationSecondsBetween(from_variables, from_spec.num_machines, plan_.variables,
                              cluster_spec_.num_machines, topology);
  simulated_seconds_ += migration_seconds;

  RebuildTimingPlane();
  cluster_ = std::make_unique<Cluster>(cluster_spec_);
  if (monitor_ != nullptr) {
    monitor_->NoteMembershipChange();
  }

  RescaleEvent event;
  event.step = iterations_;
  event.from_machines = from_spec.num_machines;
  event.to_machines = cluster_spec_.num_machines;
  event.from_ranks = from_ranks;
  event.to_ranks = num_ranks();
  event.from_plan = from_plan;
  event.to_plan = partition_plan_;
  event.incumbent_seconds = incumbent_seconds;
  event.adopted_seconds = best_seconds;
  event.migration_seconds = migration_seconds;
  rescale_trail_.push_back(std::move(event));
  PX_LOG(Info) << "rescale at step " << iterations_ << ": " << from_spec.num_machines
               << " -> " << cluster_spec_.num_machines << " machines (" << from_ranks
               << " -> " << num_ranks() << " ranks), plan " << from_plan.ToString()
               << " -> " << partition_plan_.ToString() << " (" << incumbent_seconds
               << "s incumbent vs " << best_seconds
               << "s adopted on the new topology, migration " << migration_seconds
               << "s)";
  return Status::Ok();
}

Status GraphRunner::Checkpoint() {
  if (!config_.checkpoint.has_value()) {
    return Status::FailedPrecondition(
        "Checkpoint() without a checkpoint config (RunnerBuilder::WithCheckpoint); "
        "use CheckpointTo(path) for one-off saves");
  }
  return CheckpointTo(config_.checkpoint->path);
}

Status GraphRunner::CheckpointTo(const std::string& path) {
  if (!initialized_) {
    return Status::FailedPrecondition("Checkpoint before the first Step");
  }
  if (path.empty()) {
    return Status::InvalidArgument("empty checkpoint path");
  }
  const double bandwidth = config_.checkpoint.has_value()
                               ? config_.checkpoint->disk_bandwidth
                               : CheckpointConfig{}.disk_bandwidth;
  // The write occupies the cluster for bytes/bandwidth simulated seconds; the stored
  // clock includes that charge, so a restore resumes from *after* the write finished.
  const double write_seconds =
      static_cast<double>(CheckpointFileBytes(*graph_)) / bandwidth;
  CheckpointMeta meta;
  meta.step = iterations_;
  meta.simulated_seconds = simulated_seconds_ + write_seconds;
  PX_RETURN_IF_ERROR(SaveCheckpoint(*graph_, ComposeView(), path, meta));
  simulated_seconds_ += write_seconds;
  last_checkpoint_step_ = iterations_;
  ++checkpoints_written_;
  return Status::Ok();
}

Status GraphRunner::RestoreFrom(const std::string& path) {
  CheckpointMeta meta;
  StatusOr<VariableStore> loaded = LoadCheckpoint(*graph_, path, &meta);
  if (!loaded.ok()) {
    return loaded.status();
  }
  const double bandwidth = config_.checkpoint.has_value()
                               ? config_.checkpoint->disk_bandwidth
                               : CheckpointConfig{}.disk_bandwidth;
  const double read_seconds =
      static_cast<double>(CheckpointFileBytes(*graph_)) / bandwidth;
  if (!initialized_) {
    // Deferred restore: the engines do not exist yet. The first Step samples the
    // restored values and InitializeFromSamples applies them once the engines are
    // prepared — so a fresh runner + RestoreFrom replays a dead run bit-for-bit.
    // last_checkpoint_step_ is set now: the recovery driver reads it to decide which
    // feeds to replay before it ever steps.
    pending_restore_ = PendingRestore{std::move(loaded).value(), meta, read_seconds};
    last_checkpoint_step_ = meta.step;
    return Status::Ok();
  }
  for (const std::unique_ptr<SyncEngine>& engine : engines_) {
    engine->LoadValues(loaded.value());
  }
  iterations_ = meta.step;
  simulated_seconds_ = meta.simulated_seconds + read_seconds;
  last_checkpoint_step_ = meta.step;
  return Status::Ok();
}

void GraphRunner::MaybeStartMonitor() {
  if (!config_.adaptive_partitioning.has_value()) {
    return;
  }
  auto monitor = std::make_unique<SparsityMonitor>(*config_.adaptive_partitioning);
  for (size_t v = 0; v < plan_.variables.size(); ++v) {
    // Monitor what the PS-family engines can observe: sparse variables whose
    // timing-plane method is PS. (AR-routed sparse variables ride AllGatherv and are
    // untouched by partitioning, so their drift cannot change the decision.)
    if (plan_.variables[v].method == SyncMethod::kPs &&
        sparsity_.at(static_cast<int>(v)).kind == GradKind::kSparse) {
      const int64_t rows = graph_->variables()[v].shape.rank() >= 1
                               ? graph_->variables()[v].shape.dim(0)
                               : 1;
      monitor->Track(static_cast<int>(v), rows, plan_.variables[v].spec.alpha);
    }
  }
  if (monitor->tracked().empty()) {
    PX_LOG(Info) << "adaptive partitioning requested but no sparse PS variable to "
                    "monitor; monitor disabled";
    return;
  }
  monitor_ = std::move(monitor);
  for (const std::unique_ptr<SyncEngine>& engine : engines_) {
    engine->set_observer(monitor_.get());
  }
}

void GraphRunner::MaybeAdapt() {
  if (monitor_ == nullptr) {
    return;
  }
  monitor_->EndStep();
  if (!monitor_->DriftCheckDue()) {
    return;
  }
  const AdaptivePartitioningPolicy& policy = monitor_->policy();
  int drift_variable = -1;
  const double drift = monitor_->MaxRelativeDrift(&drift_variable);
  if (drift < policy.drift_threshold) {
    monitor_->NoteCheck();
    return;
  }

  // Drift confirmed. Adopt the measured alphas as the plan's workload description —
  // from here on the timing plane and every candidate the re-search simulates cost
  // the access pattern the engines actually observed, not the startup sample.
  // plan_alpha prefers the per-rank estimator (no union-inversion bias under
  // correlated workers) over the drift estimator. The observation tap sits AFTER
  // gradient compression, so a top-k variable's measurement is ~ratio * raw alpha;
  // spec.alpha keeps raw pre-wire semantics (pulls are uncompressed) and the
  // simulator re-applies the ratio on the push side, so dividing here is what keeps
  // the compressed wire volume priced exactly once.
  for (int v : monitor_->tracked()) {
    const CompressionSpec& compression =
        plan_.variables[static_cast<size_t>(v)].compression;
    double alpha = monitor_->plan_alpha(v);
    if (compression.kind == CompressionKind::kTopK && compression.ratio > 0.0 &&
        compression.ratio < 1.0) {
      alpha = std::min(1.0, alpha / compression.ratio);
    }
    plan_.variables[static_cast<size_t>(v)].spec.alpha = alpha;
  }

  // Re-search over the shared arena: every candidate replays cached schedules and
  // reuses task storage, so the whole search costs milliseconds (docs/perf.md).
  auto same_layout = [](const std::vector<VariableSync>& a,
                        const std::vector<VariableSync>& b) {
    for (size_t v = 0; v < a.size(); ++v) {
      if (a[v].partitions != b[v].partitions || a[v].placement != b[v].placement) {
        return false;
      }
    }
    return true;
  };
  const double current_seconds = MeasurePlan(partition_plan_);
  PartitionPlan best_plan = partition_plan_;
  double best_seconds = current_seconds;
  if (policy.repartition) {
    PlannerQuery query = MakePlannerQuery(partition_plan_.MaxPartitions());
    // Warm start the per-variable re-search when the drift is confined to a single
    // variable: the other counts were right at the last verdict and their workloads
    // have not moved, so the descent resumes from the incumbent plan and round 0
    // sweeps only the drifted coordinate — one sweep instead of a full search.
    const std::vector<PartitionSearchVariable> targets = SearchTargets(query);
    const auto drifted =
        std::count_if(targets.begin(), targets.end(),
                      [](const PartitionSearchVariable& target) { return target.drifted; });
    query.options.warm_start = drifted == 1;
    // The candidate is re-measured at the measured (unsnapped) alphas, so the
    // hysteresis comparison against current_seconds is measured-vs-measured on the
    // same arena whichever planner produced it: deterministic and free of model error.
    PartitionPlan found = Plan(query).plan;
    if (!same_layout(VariablesWithPartitions(found), plan_.variables)) {
      best_seconds = MeasurePlan(found);
      best_plan = std::move(found);
    }
  }

  // The swap is not free: re-preparing the changed variables moves their shard bytes
  // between servers. Adopt only when the per-step win pays that back before the loop
  // could revisit the decision — which is gated by BOTH the post-verdict cooldown and
  // the check interval, so the window is whichever is longer.
  std::vector<VariableSync> best_variables = VariablesWithPartitions(best_plan);
  const bool layout_changed = !same_layout(best_variables, plan_.variables);
  const double migration_seconds =
      layout_changed ? MigrationSecondsBetween(plan_.variables, cluster_spec_.num_machines,
                                               best_variables, cluster_spec_.num_machines,
                                               Topology(cluster_spec_))
                     : 0.0;
  const double window_steps = static_cast<double>(
      std::max({policy.cooldown_steps, policy.check_interval, 1}));
  const bool amortized =
      (current_seconds - best_seconds) * window_steps >= migration_seconds;

  AdaptationVerdict verdict;
  verdict.step = iterations_;
  verdict.variable = drift_variable;
  verdict.drift = drift;
  verdict.measured_alpha =
      drift_variable >= 0 ? monitor_->measured_alpha(drift_variable) : 0.0;
  verdict.from_plan = partition_plan_;
  verdict.best_plan = best_plan;
  verdict.current_seconds = current_seconds;
  verdict.best_seconds = best_seconds;
  verdict.migration_seconds = migration_seconds;
  verdict.amortized = amortized;
  verdict.adopted = layout_changed &&
                    best_seconds < current_seconds * (1.0 - policy.hysteresis) &&
                    amortized;
  verdict.to_plan = verdict.adopted ? best_plan : partition_plan_;

  if (verdict.adopted) {
    PX_LOG(Info) << "adaptive repartition at step " << iterations_ << ": "
                 << verdict.from_plan.ToString() << " -> " << verdict.to_plan.ToString()
                 << " (simulated " << current_seconds << "s -> " << best_seconds
                 << "s, migration " << migration_seconds << "s, drift " << drift
                 << " on variable " << drift_variable << ")";
    // Charge the transition to the simulated clock: the next iterations overlap a
    // cluster that just spent this long reshuffling shards.
    simulated_seconds_ += migration_seconds;
    Repartition(best_plan);
  } else {
    PX_LOG(Info) << "adaptive re-search at step " << iterations_ << ": keeping "
                 << partition_plan_.ToString() << " (best candidate "
                 << best_plan.ToString() << " at " << best_seconds << "s vs "
                 << current_seconds << "s current, hysteresis " << policy.hysteresis
                 << ", migration " << migration_seconds << "s "
                 << (amortized ? "amortized" : "NOT amortized") << "; drift " << drift
                 << " on variable " << drift_variable << ")";
    // Not adopted — but the plan's alphas changed above, so rebuild the timing plane:
    // the clock should track measured sparsity whether or not the layout moves.
    RebuildTimingPlane();
  }
  monitor_->RecordVerdict(verdict);
}

VariableStore GraphRunner::ComposeView() const {
  VariableStore view;
  for (const std::unique_ptr<SyncEngine>& engine : engines_) {
    VariableStore part = engine->View();
    for (const auto& [v, value] : part.values()) {
      view.Set(v, value);
    }
  }
  return view;
}

float GraphRunner::Step(const std::vector<FeedMap>& per_rank_feeds) {
  PX_CHECK_EQ(static_cast<int>(per_rank_feeds.size()), num_ranks())
      << "one feed shard per GPU replica";
  // Ranks [0, computed) of this step already have their results in step_results_:
  // the first step's samples ran on the values the engines start from.
  size_t computed = 0;
  if (!initialized_) {
    InitializeFromSamples(per_rank_feeds);
    computed = step_results_.size();
  }

  bool sequential = !engines_.empty();
  for (const std::unique_ptr<SyncEngine>& engine : engines_) {
    sequential = sequential && engine->SequentialArrival();
  }

  float loss_sum = 0.0f;
  if (sequential) {
    // Barrier-free protocol (every engine is asynchronous): each rank computes against
    // the freshest values and its gradients are applied the moment they exist, so the
    // next rank sees them — the staleness of section 2.1, in deterministic rank order.
    step_results_.resize(1);
    for (int r = 0; r < num_ranks(); ++r) {
      VariableStore view = ComposeView();
      executor_.RunStepInto(view, per_rank_feeds[static_cast<size_t>(r)], loss_,
                            &exec_scratch_, &step_results_[0]);
      loss_sum += step_results_[0].loss;
      for (const std::unique_ptr<SyncEngine>& engine : engines_) {
        engine->ApplyStep(step_results_, config_.learning_rate);
      }
    }
  } else {
    // Synchronous barrier: every replica computes on its shard against the step-start
    // view (shared across ranks — reads only, valid until the engines apply the step),
    // then every engine applies the batch to the variables the plan routes to it.
    // The replicas fan out over the kernel pool, one rank per task: each writes only
    // its own scratch and step_results_[r] (which recycles its gradient storage from
    // the previous step), and the loss is summed in rank order after the join, so the
    // step is bit-identical at every lane count. With one lane ParallelFor runs the
    // ranks in order on this thread, on one scratch. The engines' pooled kernels run
    // after the join, so nothing nests. The first step fans out only the ranks its
    // samples left uncomputed: the view holds the values they were sampled on.
    VariableStore view = ComposeView();
    const size_t ranks = per_rank_feeds.size();
    step_results_.resize(ranks);
    rank_scratch_.resize(ranks > 0 ? ranks - 1 : 0);
    step_view_ = &view;
    step_feeds_ = &per_rank_feeds;
    step_first_rank_ = static_cast<int64_t>(computed);
    GlobalSparsePool().ParallelFor(static_cast<int64_t>(ranks - computed), /*grain=*/1,
                                   replica_body_);
    step_view_ = nullptr;
    step_feeds_ = nullptr;
    for (const StepResult& result : step_results_) {
      loss_sum += result.loss;
    }
    for (const std::unique_ptr<SyncEngine>& engine : engines_) {
      engine->ApplyStep(step_results_, config_.learning_rate);
    }
  }

  // Advance the simulated clock by this iteration's makespan, then give the adaptive
  // loop its per-step turn (observation fold, drift check, possible re-search).
  simulated_seconds_ = timing_->SimulateIteration(*cluster_, simulated_seconds_);
  ++iterations_;
  MaybeAdapt();
  if (config_.checkpoint.has_value() && config_.checkpoint->interval_steps > 0 &&
      iterations_ % config_.checkpoint->interval_steps == 0) {
    const Status status = CheckpointTo(config_.checkpoint->path);
    PX_CHECK(status.ok()) << "periodic checkpoint to '" << config_.checkpoint->path
                          << "' failed: " << status.ToString();
  }
  return loss_sum / static_cast<float>(num_ranks());
}

void GraphRunner::RunReplicas(int64_t begin, int64_t end) {
  // A chunk's ranks run one after another on one lane, so they share the scratch of its
  // first index: at grain 1 every rank has its own, and a one-lane (inline) run keeps
  // all ranks on exec_scratch_. Indices count from step_first_rank_, so a chunk's
  // scratch depends only on its place in the fan-out.
  ExecScratch* scratch =
      begin == 0 ? &exec_scratch_ : &rank_scratch_[static_cast<size_t>(begin) - 1];
  for (int64_t i = begin; i < end; ++i) {
    const size_t rank = static_cast<size_t>(step_first_rank_ + i);
    executor_.RunStepInto(*step_view_, (*step_feeds_)[rank], loss_, scratch,
                          &step_results_[rank]);
  }
}

Tensor GraphRunner::Evaluate(const FeedMap& feeds, NodeId fetch) {
  PX_CHECK(initialized_) << "Evaluate before the first Step";
  // Clone: fetching a variable node would otherwise hand out a tensor aliasing live
  // engine buffers, which the next Step mutates — Evaluate returns a stable snapshot.
  return executor_.RunForward(ComposeView(), feeds, fetch).Clone();
}

const std::vector<VariableSync>& GraphRunner::assignment() const {
  PX_CHECK(initialized_);
  return plan_.variables;
}

const SyncPlan& GraphRunner::plan() const {
  PX_CHECK(initialized_);
  return plan_;
}

SyncEngine* GraphRunner::engine(const std::string& name) const {
  for (const std::unique_ptr<SyncEngine>& engine : engines_) {
    if (engine->name() == name) {
      return engine.get();
    }
  }
  return nullptr;
}

DistributedGraph GraphRunner::distributed_graph() const {
  PX_CHECK(initialized_);
  return TransformGraph(*graph_, plan_.variables, resources_, config_.local_aggregation);
}

VariableStore GraphRunner::WorkerView() const {
  PX_CHECK(initialized_);
  // A snapshot: engine views may share live engine buffers, so hand out a deep copy.
  return ComposeView().Clone();
}

}  // namespace parallax
