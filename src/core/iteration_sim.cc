#include "src/core/iteration_sim.h"

#include <algorithm>
#include <cmath>

#include "src/base/math.h"
#include "src/base/strings.h"

namespace parallax {

Status ValidateTimingInputs(const ClusterSpec& cluster, double gpu_compute_seconds,
                            const SyncCostParams& costs) {
  const ClusterSpec& c = cluster;
  if (c.num_machines < 1 || c.gpus_per_machine < 1 || c.cores_per_machine < 1) {
    return Status::InvalidArgument(
        "cluster: num_machines, gpus_per_machine and cores_per_machine must be >= 1");
  }
  // Negated comparisons, so that a NaN fails them too.
  if (!(c.nic_bandwidth > 0.0) || !(c.pcie_bandwidth > 0.0) || !(c.nic_latency >= 0.0) ||
      !(c.pcie_latency >= 0.0)) {
    return Status::InvalidArgument(
        "cluster: NIC and PCIe bandwidths must be > 0 and their latencies >= 0");
  }
  if (!c.topology.flat() && c.num_machines % c.topology.num_racks != 0) {
    return Status::InvalidArgument(StrFormat(
        "cluster: %d racks do not divide %d machines evenly", c.topology.num_racks,
        c.num_machines));
  }
  // Checked on a flat cluster too, which never reads them: a planner key holds them,
  // and a NaN there would make the key equal to no other.
  if (!(c.topology.spine_bandwidth > 0.0) || !(c.topology.spine_latency >= 0.0)) {
    return Status::InvalidArgument(
        "cluster: spine_bandwidth must be > 0 and spine_latency >= 0");
  }
  if (!std::isfinite(gpu_compute_seconds) || gpu_compute_seconds < 0.0) {
    return Status::InvalidArgument("gpu_compute_seconds must be finite and >= 0");
  }
  for (double cost :
       {costs.sparse_agg_seconds_per_element, costs.sparse_update_seconds_per_element,
        costs.sparse_flush_seconds_per_element, costs.dense_agg_seconds_per_element,
        costs.dense_update_seconds_per_element, costs.request_overhead_seconds,
        costs.partition_overhead_seconds, costs.stitch_seconds_per_partition,
        costs.worker_dispatch_seconds_per_piece, costs.gpu_dense_apply_seconds_per_element,
        costs.gpu_sparse_apply_seconds_per_element, costs.collective_step_overhead_seconds,
        costs.compress_seconds_per_element, costs.gatherv_cross_machine_inflation}) {
    if (!std::isfinite(cost) || cost < 0.0) {
      return Status::InvalidArgument("costs: every cost must be finite and >= 0");
    }
  }
  return Status::Ok();
}

std::vector<int> ResolveShardServers(std::span<const VariableSync> variables,
                                     int num_machines) {
  std::vector<int> servers;
  int server_rr = 0;  // advances for every shard, placed or not, so a placement on one
                      // variable never shifts its neighbors' round-robin assignment
  for (const VariableSync& sync : variables) {
    if (sync.method != SyncMethod::kPs) {
      continue;
    }
    const bool placed =
        static_cast<int>(sync.placement.size()) == sync.partitions;
    for (int p = 0; p < sync.partitions; ++p) {
      int rr = server_rr++ % num_machines;
      int server = placed ? sync.placement[static_cast<size_t>(p)] : rr;
      PX_CHECK_GE(server, 0);
      PX_CHECK_LT(server, num_machines);
      servers.push_back(server);
    }
  }
  return servers;
}

IterationSimulator::IterationSimulator(const ClusterSpec& cluster_spec,
                                       std::vector<VariableSync> variables,
                                       double gpu_compute_seconds, int compute_chunks,
                                       IterationSimConfig config, SimulationArena* arena)
    : cluster_spec_(cluster_spec),
      variables_(std::move(variables)),
      gpu_compute_seconds_(gpu_compute_seconds),
      compute_chunks_(std::max(compute_chunks, 2)),
      config_(config) {
  PX_CHECK(!variables_.empty());
  if (arena != nullptr) {
    arena_ = arena;
  } else {
    owned_arena_ = std::make_unique<SimulationArena>();
    arena_ = owned_arena_.get();
  }
  forward_chunks_ = std::max(1, compute_chunks_ / 2);
  const int backward_chunks = std::max(1, compute_chunks_ - forward_chunks_);
  compute_chunks_ = forward_chunks_ + backward_chunks;

  const int num_vars = static_cast<int>(variables_.size());
  pull_chunk_.resize(static_cast<size_t>(num_vars));
  grad_chunk_.resize(static_cast<size_t>(num_vars));
  // Round-robin shard placement across server machines, unless a variable carries an
  // explicit placement vector (searched placements, ResolveShardServers).
  std::vector<int> servers = ResolveShardServers(variables_, cluster_spec_.num_machines);
  size_t next_server = 0;
  for (int v = 0; v < num_vars; ++v) {
    // Variables are listed in layer order; the first variable is consumed by the first
    // forward chunk and its gradient is produced by the last backward chunk.
    double position = (static_cast<double>(v) + 0.5) / num_vars;
    pull_chunk_[static_cast<size_t>(v)] =
        std::min(forward_chunks_ - 1, static_cast<int>(position * forward_chunks_));
    grad_chunk_[static_cast<size_t>(v)] =
        forward_chunks_ +
        std::min(backward_chunks - 1, static_cast<int>((1.0 - position) * backward_chunks));

    const VariableSync& sync = variables_[static_cast<size_t>(v)];
    PX_CHECK_GE(sync.partitions, 1);
    if (sync.method == SyncMethod::kPs) {
      for (int p = 0; p < sync.partitions; ++p) {
        Shard shard;
        shard.var = v;
        shard.piece = p;
        shard.server = servers[next_server++];
        shard.elements = BalancedSplitSize(sync.spec.num_elements, sync.partitions, p);
        shards_.push_back(shard);
      }
    }
  }
}

int64_t IterationSimulator::SparseIndexBytes(int64_t touched_elements,
                                             int64_t row_elements) const {
  if (!config_.include_index_bytes) {
    return 0;
  }
  return (touched_elements / std::max<int64_t>(row_elements, 1)) * 8;
}

int64_t IterationSimulator::PullBytesPerWorker(const Shard& shard) const {
  const VariableSpec& spec = variables_[static_cast<size_t>(shard.var)].spec;
  if (!spec.is_sparse) {
    return shard.elements * 4;
  }
  int64_t touched = static_cast<int64_t>(spec.alpha * static_cast<double>(shard.elements));
  return touched * 4 + SparseIndexBytes(touched, spec.row_elements);
}

double IterationSimulator::PushAlpha(const VariableSync& sync) const {
  const CompressionSpec& compression = sync.compression;
  if (compression.kind == CompressionKind::kTopK && compression.ratio > 0.0 &&
      compression.ratio < 1.0) {
    return sync.spec.alpha * compression.ratio;
  }
  return sync.spec.alpha;
}

int64_t IterationSimulator::SparseWireBytes(const VariableSync& sync,
                                            int64_t touched) const {
  if (sync.compression.kind == CompressionKind::kInt8) {
    // 1 byte per element plus a float scale per transmitted row.
    const int64_t rows = touched / std::max<int64_t>(sync.spec.row_elements, 1);
    return touched + rows * 4 + SparseIndexBytes(touched, sync.spec.row_elements);
  }
  return touched * 4 + SparseIndexBytes(touched, sync.spec.row_elements);
}

int64_t IterationSimulator::PushBytesPerWorker(const Shard& shard) const {
  const VariableSync& sync = variables_[static_cast<size_t>(shard.var)];
  const VariableSpec& spec = sync.spec;
  if (!spec.is_sparse) {
    if (sync.compression.kind == CompressionKind::kInt8) {
      const int64_t rows = shard.elements / std::max<int64_t>(spec.row_elements, 1);
      return shard.elements + rows * 4;
    }
    return shard.elements * 4;
  }
  const int64_t touched =
      static_cast<int64_t>(PushAlpha(sync) * static_cast<double>(shard.elements));
  return SparseWireBytes(sync, touched);
}

double IterationSimulator::CompressSeconds(const Shard& shard) const {
  const VariableSync& sync = variables_[static_cast<size_t>(shard.var)];
  if (sync.compression.kind == CompressionKind::kNone) {
    return 0.0;
  }
  const int64_t raw_elements =
      sync.spec.is_sparse
          ? static_cast<int64_t>(sync.spec.alpha * static_cast<double>(shard.elements))
          : shard.elements;
  return config_.costs.compress_seconds_per_element * static_cast<double>(raw_elements);
}

SimTime IterationSimulator::SimulateIteration(Cluster& cluster, SimTime start_time) {
  const RankLayout layout = cluster.layout();
  SimulationArena& a = *arena_;
  // The iteration DAG depends only on this simulator's fixed configuration plus the
  // cluster layout, so when the arena still holds this simulator's last build, skip the
  // rebuild and go straight to Execute. (Reset + identical rebuild produces an
  // identical graph — asserted by tests/sim_steady_state_test.cc — so this is purely a
  // time saving, never a behavior change.)
  if (a.built_by != this || a.build_serial != built_serial_ ||
      built_num_machines_ != layout.num_machines || built_gpus_ != layout.gpus_per_machine) {
    BuildIterationGraph(layout);
  }
  const TaskResult result = a.graph.Execute(cluster, start_time);
  const SimTime finish = a.graph.FinishTime(final_task_);
  // A task outside the final task's ancestry would still hold a resource when the
  // iteration reports its end, and MeasureIterationSeconds would misprice the layout.
  PX_CHECK_LE(result.finish_time, finish)
      << "a simulated task outlives the iteration barrier";
  return finish;
}

void IterationSimulator::BuildIterationGraph(const RankLayout& layout) {
  const int num_ranks = layout.num_ranks();
  const int gpus = cluster_spec_.gpus_per_machine;
  const SyncCostParams& costs = config_.costs;
  const CollectiveOptions collective{costs.collective_step_overhead_seconds};

  SimulationArena& a = *arena_;
  TaskGraph& graph = a.graph;
  graph.Reset();
  a.built_by = this;
  built_serial_ = ++a.build_serial;
  built_num_machines_ = layout.num_machines;
  built_gpus_ = layout.gpus_per_machine;

  std::vector<TaskId>& end_tasks = a.end_tasks;
  end_tasks.clear();

  // Single-GPU job: the graph runs unmodified — no pulls, no collectives, no servers
  // (Parallax leaves a 1-GPU graph alone; the local SGD apply rides the GPU). A dense
  // variable's apply walks every element; a sparse one's walks the rows the step
  // touched, priced as the AllGatherv path prices one rank's block.
  if (num_ranks == 1) {
    TaskId compute = graph.AddGpuCompute(0, 0, gpu_compute_seconds_);
    int64_t dense_elements = 0;
    int64_t touched_elements = 0;
    for (const VariableSync& sync : variables_) {
      if (sync.spec.is_sparse) {
        touched_elements += static_cast<int64_t>(
            sync.spec.alpha * static_cast<double>(sync.spec.num_elements));
      } else {
        dense_elements += sync.spec.num_elements;
      }
    }
    TaskId apply = graph.AddGpuCompute(
        0, 0,
        costs.gpu_dense_apply_seconds_per_element * static_cast<double>(dense_elements) +
            costs.gpu_sparse_apply_seconds_per_element *
                static_cast<double>(touched_elements),
        {compute});
    final_task_ = apply;
    return;
  }

  // ---- Phase 1: PS pulls ----------------------------------------------------------
  // avail[rank][shard] = task after which the shard's rows are on the rank's machine.
  //
  // Pulls are enqueued deepest-layer-first. All pulls issue at the iteration barrier and
  // share the server's RPC path; under fair multiplexing no variable finishes much
  // before the whole pull burst drains, so the first forward chunk's variables must not
  // be allowed to jump the queue — serving them last models the fair-share drain time
  // on the critical path.
  std::vector<std::vector<TaskId>>& avail = a.avail;
  avail.resize(static_cast<size_t>(num_ranks));
  for (auto& per_rank : avail) {
    per_rank.assign(shards_.size(), kNoTask);
  }
  for (size_t si = shards_.size(); si-- > 0;) {
    const size_t s = si;
    const Shard& shard = shards_[s];
    const VariableSpec& spec = variables_[static_cast<size_t>(shard.var)].spec;
    if (config_.ps_machine_level_pulls) {
      // One pull per machine (by its chief worker), local broadcast over PCIe.
      for (int m = 0; m < cluster_spec_.num_machines; ++m) {
        int64_t bytes;
        if (spec.is_sparse) {
          int64_t touched = static_cast<int64_t>(UnionAlpha(spec.alpha, gpus) *
                                                 static_cast<double>(shard.elements));
          bytes = touched * 4 + SparseIndexBytes(touched, spec.row_elements);
        } else {
          bytes = shard.elements * 4;
        }
        TaskId req = graph.AddCpuWork(shard.server, costs.request_overhead_seconds);
        TaskId xfer = (m == shard.server)
                          ? graph.AddLocalTransfer(m, bytes, {req})
                          : graph.AddTransfer(shard.server, m, bytes, {req});
        TaskId ready = xfer;
        if (gpus > 1) {
          ready = graph.AddLocalTransfer(m, bytes, {xfer});  // broadcast to local GPUs
        }
        for (int g = 0; g < gpus; ++g) {
          avail[static_cast<size_t>(layout.RankOf(m, g))][s] = ready;
        }
      }
    } else {
      // Naive PS: every worker pulls for itself.
      for (int r = 0; r < num_ranks; ++r) {
        int machine = layout.MachineOfRank(r);
        int64_t bytes = PullBytesPerWorker(shard);
        TaskId req = graph.AddCpuWork(shard.server, costs.request_overhead_seconds);
        TaskId xfer = (machine == shard.server)
                          ? graph.AddLocalTransfer(machine, bytes, {req})
                          : graph.AddTransfer(shard.server, machine, bytes, {req});
        avail[static_cast<size_t>(r)][s] = xfer;
      }
    }
  }

  // Per-rank, per-variable readiness gates for the forward pass (stitching partitioned
  // pulls costs worker CPU proportional to the partition count — the theta2 term).
  // gate[rank][var].
  std::vector<std::vector<TaskId>>& gate = a.gate;
  gate.resize(static_cast<size_t>(num_ranks));
  for (auto& per_rank : gate) {
    per_rank.assign(variables_.size(), kNoTask);
  }
  for (int v = 0; v < static_cast<int>(variables_.size()); ++v) {
    if (variables_[static_cast<size_t>(v)].method != SyncMethod::kPs) {
      continue;  // AR variables are resident replicas: no pull
    }
    std::vector<size_t>& var_shards = a.var_shards;
    var_shards.clear();
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].var == v) {
        var_shards.push_back(s);
      }
    }
    for (int r = 0; r < num_ranks; ++r) {
      std::vector<TaskId>& deps = a.deps;
      deps.clear();
      deps.reserve(var_shards.size());
      for (size_t s : var_shards) {
        deps.push_back(avail[static_cast<size_t>(r)][s]);
      }
      if (var_shards.size() > 1) {
        gate[static_cast<size_t>(r)][static_cast<size_t>(v)] = graph.AddCpuWork(
            layout.MachineOfRank(r),
            costs.stitch_seconds_per_partition * static_cast<double>(var_shards.size()),
            std::span<const TaskId>(deps));
      } else {
        gate[static_cast<size_t>(r)][static_cast<size_t>(v)] =
            graph.AddBarrier(std::span<const TaskId>(deps));
      }
    }
  }

  // ---- Phase 2: chunked forward + backward compute per rank ------------------------
  // Each rank's session first dispatches the per-piece ops for this iteration — a
  // client-serial cost growing linearly in the piece count (theta2 of Equation 1).
  const double chunk_seconds = gpu_compute_seconds_ / compute_chunks_;
  const double dispatch_seconds =
      costs.worker_dispatch_seconds_per_piece * static_cast<double>(shards_.size());
  std::vector<std::vector<TaskId>>& chunk_task = a.chunk;
  chunk_task.resize(static_cast<size_t>(num_ranks));
  for (auto& per_rank : chunk_task) {
    per_rank.assign(static_cast<size_t>(compute_chunks_), kNoTask);
  }
  for (int r = 0; r < num_ranks; ++r) {
    TaskId prev = kNoTask;
    if (!shards_.empty() && dispatch_seconds > 0.0) {
      prev = graph.AddCpuWork(layout.MachineOfRank(r), dispatch_seconds);
    }
    for (int c = 0; c < compute_chunks_; ++c) {
      std::vector<TaskId>& deps = a.deps;
      deps.clear();
      if (prev != kNoTask) {
        deps.push_back(prev);
      }
      if (c < forward_chunks_) {
        for (int v = 0; v < static_cast<int>(variables_.size()); ++v) {
          if (pull_chunk_[static_cast<size_t>(v)] == c &&
              gate[static_cast<size_t>(r)][static_cast<size_t>(v)] != kNoTask) {
            deps.push_back(gate[static_cast<size_t>(r)][static_cast<size_t>(v)]);
          }
        }
      }
      prev = graph.AddGpuCompute(layout.MachineOfRank(r), layout.LocalGpuOfRank(r),
                                 chunk_seconds, std::span<const TaskId>(deps));
      chunk_task[static_cast<size_t>(r)][static_cast<size_t>(c)] = prev;
    }
    end_tasks.push_back(prev);
  }

  // ---- Phase 3a: AR dense groups (bucket by producing chunk = Horovod tensor fusion) --
  for (int c = forward_chunks_; c < compute_chunks_; ++c) {
    int64_t group_elements = 0;
    for (int v = 0; v < static_cast<int>(variables_.size()); ++v) {
      if (grad_chunk_[static_cast<size_t>(v)] == c &&
          variables_[static_cast<size_t>(v)].method == SyncMethod::kArAllReduce) {
        group_elements += variables_[static_cast<size_t>(v)].spec.num_elements;
      }
    }
    if (group_elements == 0) {
      continue;
    }
    std::vector<TaskId>& deps = a.collective_deps;
    deps.resize(static_cast<size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      deps[static_cast<size_t>(r)] = chunk_task[static_cast<size_t>(r)][static_cast<size_t>(c)];
    }
    // On a racked cluster the AllReduce's cross-rack rings ride the spine; a flat
    // cluster, or a single machine, is one rack.
    const int num_racks = cluster_spec_.topology.flat() || layout.num_machines == 1
                              ? 1
                              : cluster_spec_.topology.num_racks;
    const SchedulePlan& plan =
        a.schedules.AllReduce(layout, num_racks, group_elements * 4, collective);
    a.schedules.Instantiate(plan, graph, deps, &a.schedule);
    for (int r = 0; r < num_ranks; ++r) {
      TaskId apply = graph.AddGpuCompute(
          layout.MachineOfRank(r), layout.LocalGpuOfRank(r),
          costs.gpu_dense_apply_seconds_per_element * static_cast<double>(group_elements),
          {a.schedule.done[static_cast<size_t>(r)]});
      end_tasks.push_back(apply);
    }
  }

  // ---- Phase 3b: AR AllGatherv per sparse variable ---------------------------------
  for (int v = 0; v < static_cast<int>(variables_.size()); ++v) {
    const VariableSync& sync = variables_[static_cast<size_t>(v)];
    if (sync.method != SyncMethod::kArAllGatherv) {
      continue;
    }
    int64_t touched = static_cast<int64_t>(sync.spec.alpha *
                                           static_cast<double>(sync.spec.num_elements));
    int64_t block_bytes = touched * 4 + SparseIndexBytes(touched, sync.spec.row_elements);
    int64_t gathered_elements = touched * num_ranks;
    std::vector<TaskId>& deps = a.collective_deps;
    deps.resize(static_cast<size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      deps[static_cast<size_t>(r)] =
          chunk_task[static_cast<size_t>(r)][static_cast<size_t>(
              grad_chunk_[static_cast<size_t>(v)])];
    }
    // OpenMPI tuned-collective behavior: large blocks ride the bandwidth-efficient ring;
    // smaller ones take the broadcast-style path (calibration.h).
    bool use_ring = config_.gatherv_algorithm == GathervAlgorithm::kRing ||
                    block_bytes >= costs.gatherv_ring_threshold_bytes;
    if (use_ring) {
      std::vector<int64_t>& blocks = a.blocks;
      blocks.assign(static_cast<size_t>(num_ranks), block_bytes);
      const SchedulePlan& plan = a.schedules.RankRingAllGatherv(layout, blocks, collective);
      a.schedules.Instantiate(plan, graph, deps, &a.schedule);
    } else {
      // Broadcast (OpenMPI-style): every rank ships its block to every other rank.
      // Cross-machine hops are inflated by the OpenMPI effective-bandwidth derate
      // (calibration.h); intra-machine hops ride shared memory / PCIe at full speed.
      int64_t inflated_bytes = static_cast<int64_t>(
          static_cast<double>(block_bytes) * costs.gatherv_cross_machine_inflation);
      const SchedulePlan& plan =
          a.schedules.BroadcastAllGatherv(layout, block_bytes, inflated_bytes);
      a.schedules.Instantiate(plan, graph, deps, &a.schedule);
    }
    for (int r = 0; r < num_ranks; ++r) {
      TaskId apply = graph.AddGpuCompute(
          layout.MachineOfRank(r), layout.LocalGpuOfRank(r),
          costs.gpu_sparse_apply_seconds_per_element *
              static_cast<double>(gathered_elements),
          {a.schedule.done[static_cast<size_t>(r)]});
      end_tasks.push_back(apply);
    }
  }

  // ---- Phase 4: PS pushes, accumulator chains, updates ------------------------------
  // Compression (VariableSync::compression) acts here and only here: the backward
  // output is selected/quantized on the worker (a CpuWork task, added only when a
  // CompressionSpec is in force), the push moves the compressed wire bytes, and the
  // accumulators/update op walk the compressed support. Pulls stay uncompressed.
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    const VariableSync& sync = variables_[static_cast<size_t>(shard.var)];
    const VariableSpec& spec = sync.spec;
    const int producing_chunk = grad_chunk_[static_cast<size_t>(shard.var)];
    const double push_alpha = PushAlpha(sync);
    const double compress_seconds = CompressSeconds(shard);
    int64_t touched_per_rank =
        spec.is_sparse
            ? static_cast<int64_t>(push_alpha * static_cast<double>(shard.elements))
            : shard.elements;

    TaskId acc_tail = kNoTask;
    if (config_.ps_local_aggregation) {
      // Gather local GPUs' gradients over PCIe, coalesce on the machine's cores, push
      // one machine-level gradient; the server's accumulator chains over machines.
      for (int m = 0; m < cluster_spec_.num_machines; ++m) {
        std::vector<TaskId>& local_deps = a.local_deps;
        local_deps.clear();
        for (int g = 0; g < gpus; ++g) {
          local_deps.push_back(chunk_task[static_cast<size_t>(layout.RankOf(m, g))]
                                         [static_cast<size_t>(producing_chunk)]);
        }
        if (compress_seconds > 0.0) {
          // Each local rank's gradient is compressed before it crosses PCIe.
          TaskId compress = graph.AddCpuWork(m, compress_seconds * gpus,
                                             std::span<const TaskId>(local_deps));
          local_deps.clear();
          local_deps.push_back(compress);
        }
        int64_t per_rank_bytes = PushBytesPerWorker(shard);
        TaskId ready;
        if (gpus > 1) {
          TaskId local_gather = graph.AddLocalTransfer(
              m, per_rank_bytes * gpus, std::span<const TaskId>(local_deps));
          if (spec.is_sparse) {
            // Coalescing local sparse gradients walks indices on the host CPU.
            double agg_seconds = costs.sparse_agg_seconds_per_element *
                                 static_cast<double>(touched_per_rank * gpus);
            ready = graph.AddCpuWork(m, agg_seconds, {local_gather});
          } else {
            // Dense local reduction is a vectorized sum folded into the gather
            // (GPU/SIMD-assisted); the PCIe crossing above is the cost.
            ready = local_gather;
          }
        } else {
          ready = graph.AddBarrier(std::span<const TaskId>(local_deps));
        }
        int64_t push_bytes;
        double acc_elements;
        if (spec.is_sparse) {
          int64_t machine_touched = static_cast<int64_t>(
              UnionAlpha(push_alpha, gpus) * static_cast<double>(shard.elements));
          push_bytes = SparseWireBytes(sync, machine_touched);
          acc_elements = static_cast<double>(machine_touched);
        } else {
          push_bytes = PushBytesPerWorker(shard);
          acc_elements = static_cast<double>(shard.elements);
        }
        TaskId push = (m == shard.server)
                          ? graph.AddLocalTransfer(m, push_bytes, {ready})
                          : graph.AddTransfer(m, shard.server, push_bytes, {ready});
        double acc_seconds =
            costs.request_overhead_seconds +
            (spec.is_sparse ? costs.sparse_agg_seconds_per_element
                            : costs.dense_agg_seconds_per_element) *
                acc_elements;
        TaskId acc_deps[2] = {push, acc_tail};
        size_t acc_dep_count = acc_tail != kNoTask ? 2 : 1;
        acc_tail = graph.AddCpuWork(shard.server, acc_seconds,
                                    std::span<const TaskId>(acc_deps, acc_dep_count));
      }
    } else {
      for (int r = 0; r < num_ranks; ++r) {
        int machine = layout.MachineOfRank(r);
        int64_t push_bytes = PushBytesPerWorker(shard);
        TaskId grad_ready =
            chunk_task[static_cast<size_t>(r)][static_cast<size_t>(producing_chunk)];
        if (compress_seconds > 0.0) {
          grad_ready = graph.AddCpuWork(machine, compress_seconds, {grad_ready});
        }
        TaskId push = (machine == shard.server)
                          ? graph.AddLocalTransfer(machine, push_bytes, {grad_ready})
                          : graph.AddTransfer(machine, shard.server, push_bytes,
                                              {grad_ready});
        double acc_seconds =
            costs.request_overhead_seconds +
            (spec.is_sparse ? costs.sparse_agg_seconds_per_element
                            : costs.dense_agg_seconds_per_element) *
                static_cast<double>(touched_per_rank);
        TaskId acc_deps[2] = {push, acc_tail};
        size_t acc_dep_count = acc_tail != kNoTask ? 2 : 1;
        acc_tail = graph.AddCpuWork(shard.server, acc_seconds,
                                    std::span<const TaskId>(acc_deps, acc_dep_count));
      }
    }

    // Update op, colocated with the shard (transformation placement rule). Sparse
    // updates pay for the touched-row scatter plus a full traversal of the piece
    // (accumulator flush + variable write) — the piece-size term partitioning divides.
    double update_elements =
        spec.is_sparse ? UnionAlpha(push_alpha, num_ranks) * static_cast<double>(shard.elements)
                       : static_cast<double>(shard.elements);
    double update_seconds =
        costs.partition_overhead_seconds +
        (spec.is_sparse ? costs.sparse_update_seconds_per_element
                        : costs.dense_update_seconds_per_element) *
            update_elements;
    if (spec.is_sparse) {
      update_seconds +=
          costs.sparse_flush_seconds_per_element * static_cast<double>(shard.elements);
    }
    TaskId update = graph.AddCpuWork(shard.server, update_seconds, {acc_tail});
    end_tasks.push_back(update);
  }

  // ---- Iteration barrier (chief-worker notification through shared queues) ----------
  final_task_ = graph.AddBarrier(std::span<const TaskId>(end_tasks));
}

std::vector<double> IterationSimulator::RunIterations(int iterations) {
  Cluster cluster(cluster_spec_);
  std::vector<double> durations;
  durations.reserve(static_cast<size_t>(iterations));
  SimTime t = 0.0;
  for (int i = 0; i < iterations; ++i) {
    SimTime finish = SimulateIteration(cluster, t);
    durations.push_back(finish - t);
    t = finish;
  }
  return durations;
}

double IterationSimulator::MeasureIterationSeconds() {
  Cluster cluster(cluster_spec_);
  return SimulateIteration(cluster, 0.0);
}

}  // namespace parallax
