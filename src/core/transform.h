// Automatic graph transformation (paper section 4.3): single-GPU graph -> distributed
// hybrid graph, expressed as an explicit, inspectable op/placement structure.
//
// Transformation rules encoded here (each is asserted by tests/transform_test.cc):
//   AR rule      — model forward/backward ops are replicated once per GPU; each dense
//                  variable gets a replica on every GPU and an AllReduce op per replica.
//   PS rule      — each sparse variable is split into partitions; pieces and their update
//                  ops are distributed across the per-machine server processes (on the
//                  machines ResolveShardServers gives: a searched placement, else
//                  round-robin), with the update and global-aggregation ops colocated
//                  with their piece; each machine gets a local-aggregation op; each
//                  worker gets pull/stitch ops.
//   Hybrid rule  — the union: per-variable routing by the hybrid assignment.
//   Chief rule   — exactly one chief worker triggers updates; every other worker gets a
//                  notification queue (section 5).
#ifndef PARALLAX_SRC_CORE_TRANSFORM_H_
#define PARALLAX_SRC_CORE_TRANSFORM_H_

#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/resources.h"
#include "src/graph/graph.h"

namespace parallax {

enum class DeviceKind : uint8_t {
  kWorkerGpu,  // a GPU-resident worker replica
  kServerCpu,  // the per-machine parameter-server process
};

struct Placement {
  DeviceKind kind = DeviceKind::kWorkerGpu;
  int machine = 0;
  int gpu = 0;  // meaningful for kWorkerGpu only

  bool operator==(const Placement& other) const {
    return kind == other.kind && machine == other.machine &&
           (kind == DeviceKind::kServerCpu || gpu == other.gpu);
  }
};

enum class DistOpRole : uint8_t {
  kModelReplica,    // forward+backward ops of one GPU replica
  kVariableReplica, // dense (AR) variable copy on a GPU
  kAllReduce,       // collective op instance on a GPU replica
  kAllGatherv,      // collective op instance on a GPU replica (AR sparse)
  kVariablePiece,   // one partition of a PS variable on a server
  kPull,            // worker-side read of a PS piece
  kStitch,          // worker-side reassembly of partitioned pulls
  kLocalAgg,        // per-machine gradient aggregation (OptPS)
  kGlobalAgg,       // per-piece accumulator on the server
  kUpdate,          // per-piece update op on the server
  kChiefTrigger,    // the chief worker's update trigger
  kQueueNotify,     // per-worker shared-queue notification
};

const char* DistOpRoleName(DistOpRole role);

struct DistOp {
  DistOpRole role;
  std::string name;
  Placement placement;
  int rank = -1;      // worker rank, where applicable
  int variable = -1;  // graph variable index, where applicable
  int piece = -1;     // partition index, where applicable
};

struct DistributedGraph {
  std::vector<DistOp> ops;
  std::vector<VariableSync> assignment;  // per-variable routing used
  int num_machines = 0;
  int gpus_per_machine = 0;
  int chief_rank = 0;

  std::vector<const DistOp*> OpsWithRole(DistOpRole role) const;
  // The piece op for (variable, piece), or nullptr.
  const DistOp* FindPiece(int variable, int piece) const;
};

// Applies the transformation rules. `assignment` comes from AssignGraphVariables (or any
// manual routing); local aggregation controls whether kLocalAgg ops are materialized.
DistributedGraph TransformGraph(const Graph& graph, const std::vector<VariableSync>& assignment,
                                const ResourceSpec& resources, bool local_aggregation);

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_TRANSFORM_H_
