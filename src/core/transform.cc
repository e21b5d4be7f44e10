#include "src/core/transform.h"

#include "src/base/strings.h"
#include "src/core/iteration_sim.h"

namespace parallax {

const char* DistOpRoleName(DistOpRole role) {
  switch (role) {
    case DistOpRole::kModelReplica:
      return "ModelReplica";
    case DistOpRole::kVariableReplica:
      return "VariableReplica";
    case DistOpRole::kAllReduce:
      return "AllReduce";
    case DistOpRole::kAllGatherv:
      return "AllGatherv";
    case DistOpRole::kVariablePiece:
      return "VariablePiece";
    case DistOpRole::kPull:
      return "Pull";
    case DistOpRole::kStitch:
      return "Stitch";
    case DistOpRole::kLocalAgg:
      return "LocalAgg";
    case DistOpRole::kGlobalAgg:
      return "GlobalAgg";
    case DistOpRole::kUpdate:
      return "Update";
    case DistOpRole::kChiefTrigger:
      return "ChiefTrigger";
    case DistOpRole::kQueueNotify:
      return "QueueNotify";
  }
  return "Unknown";
}

std::vector<const DistOp*> DistributedGraph::OpsWithRole(DistOpRole role) const {
  std::vector<const DistOp*> result;
  for (const DistOp& op : ops) {
    if (op.role == role) {
      result.push_back(&op);
    }
  }
  return result;
}

const DistOp* DistributedGraph::FindPiece(int variable, int piece) const {
  for (const DistOp& op : ops) {
    if (op.role == DistOpRole::kVariablePiece && op.variable == variable &&
        op.piece == piece) {
      return &op;
    }
  }
  return nullptr;
}

DistributedGraph TransformGraph(const Graph& graph,
                                const std::vector<VariableSync>& assignment,
                                const ResourceSpec& resources, bool local_aggregation) {
  PX_CHECK_EQ(assignment.size(), graph.variables().size());
  PX_CHECK(resources.IsHomogeneous());
  DistributedGraph dist;
  dist.assignment = assignment;
  dist.num_machines = resources.num_machines();
  dist.gpus_per_machine = static_cast<int>(resources.machines.front().gpu_ids.size());
  dist.chief_rank = 0;
  const int num_ranks = dist.num_machines * dist.gpus_per_machine;

  auto worker_placement = [&](int rank) {
    Placement p;
    p.kind = DeviceKind::kWorkerGpu;
    p.machine = rank / dist.gpus_per_machine;
    p.gpu = rank % dist.gpus_per_machine;
    return p;
  };

  // AR rule: one model replica per GPU (forward + backward ops of the whole graph).
  for (int r = 0; r < num_ranks; ++r) {
    DistOp op;
    op.role = DistOpRole::kModelReplica;
    op.name = StrFormat("replica_%d/model", r);
    op.placement = worker_placement(r);
    op.rank = r;
    dist.ops.push_back(std::move(op));
  }

  bool any_ps_variable = false;
  // Server machine of every PS piece, in variable order: a searched placement where the
  // plan has one, round-robin otherwise — the ownership rule the simulator and the
  // engines use.
  const std::vector<int> servers = ResolveShardServers(assignment, dist.num_machines);
  size_t next_server = 0;
  for (size_t v = 0; v < assignment.size(); ++v) {
    const VariableSync& sync = assignment[v];
    const std::string& var_name = graph.variables()[v].name;
    if (sync.method != SyncMethod::kPs) {
      // AR rule: variable replicas + collective op instance on every GPU.
      DistOpRole collective_role = sync.method == SyncMethod::kArAllReduce
                                       ? DistOpRole::kAllReduce
                                       : DistOpRole::kAllGatherv;
      for (int r = 0; r < num_ranks; ++r) {
        DistOp replica;
        replica.role = DistOpRole::kVariableReplica;
        replica.name = StrFormat("replica_%d/%s", r, var_name.c_str());
        replica.placement = worker_placement(r);
        replica.rank = r;
        replica.variable = static_cast<int>(v);
        dist.ops.push_back(std::move(replica));

        DistOp collective;
        collective.role = collective_role;
        collective.name = StrFormat("replica_%d/%s_grad_sync", r, var_name.c_str());
        collective.placement = worker_placement(r);
        collective.rank = r;
        collective.variable = static_cast<int>(v);
        dist.ops.push_back(std::move(collective));
      }
      continue;
    }

    // PS rule: pieces, per-piece global aggregation + update colocated with the piece.
    any_ps_variable = true;
    for (int p = 0; p < sync.partitions; ++p) {
      Placement server;
      server.kind = DeviceKind::kServerCpu;
      server.machine = servers[next_server++];

      DistOp piece;
      piece.role = DistOpRole::kVariablePiece;
      piece.name = StrFormat("%s/part_%d", var_name.c_str(), p);
      piece.placement = server;
      piece.variable = static_cast<int>(v);
      piece.piece = p;
      dist.ops.push_back(std::move(piece));

      DistOp agg;
      agg.role = DistOpRole::kGlobalAgg;
      agg.name = StrFormat("%s/part_%d/global_agg", var_name.c_str(), p);
      agg.placement = server;
      agg.variable = static_cast<int>(v);
      agg.piece = p;
      dist.ops.push_back(std::move(agg));

      DistOp update;
      update.role = DistOpRole::kUpdate;
      update.name = StrFormat("%s/part_%d/update", var_name.c_str(), p);
      update.placement = server;
      update.variable = static_cast<int>(v);
      update.piece = p;
      dist.ops.push_back(std::move(update));
    }

    // Local aggregation: one per machine per PS variable (OptPS rule).
    if (local_aggregation) {
      for (int m = 0; m < dist.num_machines; ++m) {
        DistOp local;
        local.role = DistOpRole::kLocalAgg;
        local.name = StrFormat("machine_%d/%s/local_agg", m, var_name.c_str());
        local.placement = Placement{DeviceKind::kWorkerGpu, m, 0};
        local.variable = static_cast<int>(v);
        dist.ops.push_back(std::move(local));
      }
    }

    // Worker-side pulls (one per rank per piece) and stitches (one per rank).
    for (int r = 0; r < num_ranks; ++r) {
      for (int p = 0; p < sync.partitions; ++p) {
        DistOp pull;
        pull.role = DistOpRole::kPull;
        pull.name = StrFormat("replica_%d/%s/pull_%d", r, var_name.c_str(), p);
        pull.placement = worker_placement(r);
        pull.rank = r;
        pull.variable = static_cast<int>(v);
        pull.piece = p;
        dist.ops.push_back(std::move(pull));
      }
      if (sync.partitions > 1) {
        DistOp stitch;
        stitch.role = DistOpRole::kStitch;
        stitch.name = StrFormat("replica_%d/%s/stitch", r, var_name.c_str());
        stitch.placement = worker_placement(r);
        stitch.rank = r;
        stitch.variable = static_cast<int>(v);
        dist.ops.push_back(std::move(stitch));
      }
    }
  }

  // Chief rule (section 5): the chief triggers updates; other workers wait on queues.
  if (any_ps_variable) {
    DistOp trigger;
    trigger.role = DistOpRole::kChiefTrigger;
    trigger.name = "chief/update_trigger";
    trigger.placement = worker_placement(dist.chief_rank);
    trigger.rank = dist.chief_rank;
    dist.ops.push_back(std::move(trigger));
    for (int r = 0; r < num_ranks; ++r) {
      if (r == dist.chief_rank) {
        continue;
      }
      DistOp notify;
      notify.role = DistOpRole::kQueueNotify;
      notify.name = StrFormat("replica_%d/chief_wait_queue", r);
      notify.placement = worker_placement(r);
      notify.rank = r;
      dist.ops.push_back(std::move(notify));
    }
  }
  return dist;
}

}  // namespace parallax
