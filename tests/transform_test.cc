#include <gtest/gtest.h>

#include <map>

#include "src/base/rng.h"
#include "src/core/iteration_sim.h"
#include "src/core/transform.h"
#include "src/models/trainable.h"

namespace parallax {
namespace {

// Builds a transformed LM graph: 2 machines x 3 GPUs, embeddings on PS with 4 pieces,
// dense weights on AR.
struct TransformFixture {
  WordLmModel model{{.vocab_size = 50, .embedding_dim = 6, .hidden_dim = 8,
                     .batch_per_rank = 16, .seed = 401}};
  ResourceSpec resources = ResourceSpec::Homogeneous(2, 3);
  DistributedGraph dist;

  explicit TransformFixture(bool local_agg = true,
                            PartitionPlan plan = PartitionPlan::Uniform(4)) {
    Executor executor(model.graph());
    VariableStore store = VariableStore::InitFrom(*model.graph());
    Rng rng(41);
    std::vector<StepResult> samples;
    for (const FeedMap& feeds : model.TrainShards(2, rng)) {
      samples.push_back(executor.RunStep(store, feeds, model.loss()));
    }
    auto info = AnalyzeSparsity(*model.graph(), model.loss(), samples);
    std::vector<VariableSync> assignment =
        AssignGraphVariables(*model.graph(), info, HybridOptions{}, plan);
    dist = TransformGraph(*model.graph(), assignment, resources, local_agg);
  }
};

TEST(TransformTest, OneModelReplicaPerGpu) {
  TransformFixture fx;
  auto replicas = fx.dist.OpsWithRole(DistOpRole::kModelReplica);
  EXPECT_EQ(replicas.size(), 6u);
  // Every (machine, gpu) pair appears exactly once.
  std::map<std::pair<int, int>, int> seen;
  for (const DistOp* op : replicas) {
    EXPECT_EQ(op->placement.kind, DeviceKind::kWorkerGpu);
    ++seen[{op->placement.machine, op->placement.gpu}];
  }
  EXPECT_EQ(seen.size(), 6u);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1);
  }
}

TEST(TransformTest, SparseVariablePiecesDistributedRoundRobin) {
  TransformFixture fx;
  auto pieces = fx.dist.OpsWithRole(DistOpRole::kVariablePiece);
  // 2 sparse variables x 4 partitions.
  EXPECT_EQ(pieces.size(), 8u);
  std::map<int, int> per_machine;
  for (const DistOp* op : pieces) {
    EXPECT_EQ(op->placement.kind, DeviceKind::kServerCpu);
    ++per_machine[op->placement.machine];
  }
  // Round-robin across 2 machines => perfectly balanced.
  EXPECT_EQ(per_machine[0], 4);
  EXPECT_EQ(per_machine[1], 4);
}

TEST(TransformTest, UpdateAndGlobalAggColocatedWithPiece) {
  // The placement rule of section 4.3: "Parallax places a global aggregation operation
  // on the same server with the variable" and assigns update ops likewise.
  TransformFixture fx;
  for (const DistOp* update : fx.dist.OpsWithRole(DistOpRole::kUpdate)) {
    const DistOp* piece = fx.dist.FindPiece(update->variable, update->piece);
    ASSERT_NE(piece, nullptr);
    EXPECT_TRUE(update->placement == piece->placement) << update->name;
  }
  for (const DistOp* agg : fx.dist.OpsWithRole(DistOpRole::kGlobalAgg)) {
    const DistOp* piece = fx.dist.FindPiece(agg->variable, agg->piece);
    ASSERT_NE(piece, nullptr);
    EXPECT_TRUE(agg->placement == piece->placement) << agg->name;
  }
}

TEST(TransformTest, SearchedPlacementPutsPiecesAggAndUpdateOnTheirServer) {
  // Both sparse variables at 4 pieces, every piece placed on machine 1: the
  // distributed graph must report the shard ownership the simulator and the engines
  // use (ResolveShardServers), not its own round-robin.
  PartitionPlan plan = PartitionPlan::Uniform(4);
  plan.SetPlacement("embedding", {1, 1, 1, 1});
  plan.SetPlacement("softmax_emb", {1, 1, 1, 1});
  TransformFixture fx(/*local_agg=*/true, plan);
  EXPECT_EQ(ResolveShardServers(fx.dist.assignment, 2), std::vector<int>(8, 1));
  for (DistOpRole role :
       {DistOpRole::kVariablePiece, DistOpRole::kGlobalAgg, DistOpRole::kUpdate}) {
    const std::vector<const DistOp*> ops = fx.dist.OpsWithRole(role);
    EXPECT_EQ(ops.size(), 8u) << DistOpRoleName(role);
    for (const DistOp* op : ops) {
      EXPECT_EQ(op->placement.kind, DeviceKind::kServerCpu) << op->name;
      EXPECT_EQ(op->placement.machine, 1) << op->name;
    }
  }
}

TEST(TransformTest, LocalAggPerMachinePerSparseVariable) {
  TransformFixture fx;
  auto local = fx.dist.OpsWithRole(DistOpRole::kLocalAgg);
  // 2 sparse variables x 2 machines.
  EXPECT_EQ(local.size(), 4u);
  std::map<std::pair<int, int>, int> seen;  // (variable, machine)
  for (const DistOp* op : local) {
    ++seen[{op->variable, op->placement.machine}];
  }
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1);
  }
}

TEST(TransformTest, NoLocalAggWhenDisabled) {
  TransformFixture fx(false);
  EXPECT_TRUE(fx.dist.OpsWithRole(DistOpRole::kLocalAgg).empty());
}

TEST(TransformTest, DenseVariablesGetReplicasAndAllReduce) {
  TransformFixture fx;
  // w1 and b1 are dense: a replica + an AllReduce instance on each of 6 GPUs.
  auto var_replicas = fx.dist.OpsWithRole(DistOpRole::kVariableReplica);
  auto allreduce = fx.dist.OpsWithRole(DistOpRole::kAllReduce);
  EXPECT_EQ(var_replicas.size(), 2u * 6u);
  EXPECT_EQ(allreduce.size(), 2u * 6u);
  // No PS-side ops for dense variables.
  for (const DistOp* op : fx.dist.OpsWithRole(DistOpRole::kVariablePiece)) {
    const VariableSync& sync = fx.dist.assignment[static_cast<size_t>(op->variable)];
    EXPECT_EQ(sync.method, SyncMethod::kPs);
  }
}

TEST(TransformTest, PullsAndStitchesPerWorker) {
  TransformFixture fx;
  auto pulls = fx.dist.OpsWithRole(DistOpRole::kPull);
  // 6 ranks x 2 sparse variables x 4 pieces.
  EXPECT_EQ(pulls.size(), 6u * 2u * 4u);
  auto stitches = fx.dist.OpsWithRole(DistOpRole::kStitch);
  // One stitch per rank per partitioned variable.
  EXPECT_EQ(stitches.size(), 6u * 2u);
}

TEST(TransformTest, ExactlyOneChiefTrigger) {
  TransformFixture fx;
  auto triggers = fx.dist.OpsWithRole(DistOpRole::kChiefTrigger);
  ASSERT_EQ(triggers.size(), 1u);
  EXPECT_EQ(triggers[0]->rank, fx.dist.chief_rank);
  // Every non-chief worker has a notification queue (section 5).
  auto notifies = fx.dist.OpsWithRole(DistOpRole::kQueueNotify);
  EXPECT_EQ(notifies.size(), 5u);
}

TEST(TransformTest, ArOnlyGraphHasNoServerOps) {
  // A dense-only model transforms into a pure AR graph: no PS ops, no chief trigger.
  MlpClassifierModel model({.feature_dims = 8, .num_classes = 4, .hidden_dim = 8,
                            .batch_per_rank = 8, .seed = 402});
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  Rng rng(42);
  std::vector<StepResult> samples;
  for (const FeedMap& feeds : model.TrainShards(2, rng)) {
    samples.push_back(executor.RunStep(store, feeds, model.loss()));
  }
  auto info = AnalyzeSparsity(*model.graph(), model.loss(), samples);
  std::vector<VariableSync> assignment =
      AssignGraphVariables(*model.graph(), info, HybridOptions{},
                           PartitionPlan::Uniform(4));
  DistributedGraph dist =
      TransformGraph(*model.graph(), assignment, ResourceSpec::Homogeneous(2, 2), true);
  EXPECT_TRUE(dist.OpsWithRole(DistOpRole::kVariablePiece).empty());
  EXPECT_TRUE(dist.OpsWithRole(DistOpRole::kChiefTrigger).empty());
  EXPECT_TRUE(dist.OpsWithRole(DistOpRole::kGlobalAgg).empty());
  EXPECT_EQ(dist.OpsWithRole(DistOpRole::kAllReduce).size(),
            model.graph()->variables().size() * 4u);
}

}  // namespace
}  // namespace parallax
