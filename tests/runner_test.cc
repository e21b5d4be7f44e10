#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/models/trainable.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

WordLmModel::Options SmallLm() {
  return {.vocab_size = 120, .embedding_dim = 8, .hidden_dim = 12,
          .batch_per_rank = 16, .seed = 601};
}

ParallaxConfig FastConfig() {
  ParallaxConfig config;
  config.learning_rate = 0.4f;
  return config;
}

TEST(RunnerTest, GetRunnerValidatesInputs) {
  WordLmModel model(SmallLm());
  EXPECT_FALSE(GetRunner(nullptr, model.loss(), "a:0").ok());
  EXPECT_FALSE(GetRunner(model.graph(), model.loss(), "not-a-spec").ok());
  EXPECT_FALSE(GetRunner(model.graph(), model.loss(), "a:0,1;b:0").ok());  // heterogeneous
  EXPECT_TRUE(GetRunner(model.graph(), model.loss(), "a:0,1;b:0,1").ok());
}

TEST(RunnerTest, TrainingReducesLossAndAdvancesClock) {
  WordLmModel model(SmallLm());
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(61);
  float first_loss = runner.Step(model.TrainShards(4, rng));
  EXPECT_GT(runner.simulated_seconds(), 0.0);
  double clock_after_one = runner.simulated_seconds();
  float last_loss = first_loss;
  for (int i = 0; i < 80; ++i) {
    last_loss = runner.Step(model.TrainShards(4, rng));
  }
  EXPECT_LT(last_loss, first_loss * 0.8f);
  EXPECT_EQ(runner.iterations(), 81);
  EXPECT_GT(runner.simulated_seconds(), clock_after_one * 50);
}

TEST(RunnerTest, AssignmentRoutesSparseToPs) {
  WordLmModel model(SmallLm());
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(62);
  runner.Step(model.TrainShards(4, rng));
  const auto& vars = model.graph()->variables();
  for (size_t v = 0; v < vars.size(); ++v) {
    const VariableSync& sync = runner.assignment()[v];
    if (vars[v].name == "embedding" || vars[v].name == "softmax_emb") {
      EXPECT_EQ(sync.method, SyncMethod::kPs) << vars[v].name;
    } else {
      EXPECT_EQ(sync.method, SyncMethod::kArAllReduce) << vars[v].name;
    }
  }
}

TEST(RunnerTest, PartitionSearchRunsForPartitionerScopedVariables) {
  WordLmModel model(SmallLm());
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(63);
  runner.Step(model.TrainShards(4, rng));
  ASSERT_TRUE(runner.partition_search().has_value());
  EXPECT_GE(runner.partition_search()->samples.size(), 2u);
  // Uniform mode adopts the sweep's best count for every variable.
  EXPECT_EQ(runner.partition_plan(),
            PartitionPlan::Uniform(runner.partition_search()->best_partitions));
}

TEST(RunnerTest, AllAllReduceRunnerSearchesNoLayout) {
  // Every variable on AllReduce: no variable takes a partition count, so every
  // candidate layout simulates the same and start-up must not search at all.
  WordLmModel::Options options = SmallLm();
  options.vocab_size = 2000;
  options.embedding_dim = 32;
  options.hidden_dim = 48;
  WordLmModel model(options);
  ParallaxConfig config = FastConfig();
  config.engine_overrides.push_back({"*", "ar"});
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(4, 2), config);
  Rng rng(69);
  runner.Step(model.TrainShards(8, rng));
  EXPECT_FALSE(runner.partition_search().has_value());
  EXPECT_FALSE(runner.plan_search().has_value());
  EXPECT_TRUE(runner.partition_plan() == PartitionPlan::Uniform(1))
      << runner.partition_plan().ToString();
  for (const VariableSync& sync : runner.assignment()) {
    EXPECT_NE(sync.method, SyncMethod::kPs) << sync.spec.name;
    EXPECT_EQ(sync.partitions, 1) << sync.spec.name;
  }
}

TEST(RunnerTest, ManualPartitionsRespected) {
  WordLmModel model(SmallLm());
  ParallaxConfig config = FastConfig();
  config.auto_partition = false;
  config.manual_plan = PartitionPlan::Uniform(6);
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2), config);
  Rng rng(64);
  runner.Step(model.TrainShards(4, rng));
  EXPECT_EQ(runner.partition_plan(), PartitionPlan::Uniform(6));
  EXPECT_FALSE(runner.partition_search().has_value());
  for (const VariableSync& sync : runner.assignment()) {
    if (sync.method == SyncMethod::kPs && sync.spec.name == "embedding") {
      EXPECT_EQ(sync.partitions, 6);
    }
  }
}

TEST(RunnerTest, TransformedGraphMatchesResources) {
  WordLmModel model(SmallLm());
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(3, 2),
                     FastConfig());
  Rng rng(65);
  runner.Step(model.TrainShards(6, rng));
  const DistributedGraph& dist = runner.distributed_graph();
  EXPECT_EQ(dist.num_machines, 3);
  EXPECT_EQ(dist.gpus_per_machine, 2);
  EXPECT_EQ(dist.OpsWithRole(DistOpRole::kModelReplica).size(), 6u);
  EXPECT_EQ(dist.OpsWithRole(DistOpRole::kChiefTrigger).size(), 1u);
}

TEST(RunnerTest, StepRequiresOneFeedPerRank) {
  WordLmModel model(SmallLm());
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(66);
  EXPECT_DEATH(runner.Step(model.TrainShards(3, rng)), "one feed shard per GPU");
}

TEST(RunnerTest, EvaluateUsesTrainedValues) {
  WordLmModel model(SmallLm());
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(67);
  std::vector<FeedMap> shards = model.TrainShards(4, rng);
  runner.Step(shards);
  Tensor loss_value = runner.Evaluate(shards[0], model.loss());
  EXPECT_GT(loss_value.at(0), 0.0f);
}

TEST(RunnerTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    WordLmModel model(SmallLm());
    GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                       FastConfig());
    Rng rng(68);
    float loss = 0.0f;
    for (int i = 0; i < 5; ++i) {
      loss = runner.Step(model.TrainShards(4, rng));
    }
    return std::make_pair(loss, runner.simulated_seconds());
  };
  auto [loss_a, time_a] = run();
  auto [loss_b, time_b] = run();
  EXPECT_EQ(loss_a, loss_b);
  EXPECT_EQ(time_a, time_b);
}

}  // namespace
}  // namespace parallax
