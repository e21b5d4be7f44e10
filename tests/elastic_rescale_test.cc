#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/models/trainable.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

// GraphRunner::Rescale — elastic membership changes mid-training (docs/elasticity.md).
// The contract under test: values are preserved bit-for-bit across any rescale, an
// immediate N -> M -> N round trip is a numeric no-op, the re-search runs against the
// NEW topology (never adopting a layout worse than the incumbent there), the shard
// migration is charged to the simulated clock, and the whole trajectory — losses,
// bits, clock — is deterministic.
//
// What is deliberately NOT promised: stepping *at* M ranks matches stepping at N. A
// different rank count re-shards the batch, so gradients differ by construction (same
// reason real AR jobs renegotiate their ring); bit-equality claims here are always
// about immediate round trips or restored replays, never across a differently-sized
// step.

WordLmModel::Options SmallLm(uint64_t seed) {
  return {.vocab_size = 120, .embedding_dim = 8, .hidden_dim = 12,
          .batch_per_rank = 16, .seed = seed};
}

ParallaxConfig FastConfig() {
  ParallaxConfig config;
  config.learning_rate = 0.4f;
  return config;
}

void ExpectBitIdentical(const VariableStore& a, const VariableStore& b,
                        const Graph& graph) {
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    EXPECT_TRUE(AllClose(a.Get(static_cast<int>(v)), b.Get(static_cast<int>(v)), 0.0f))
        << graph.variables()[v].name;
  }
}

TEST(ElasticRescaleTest, GrowPreservesValuesBitForBit) {
  WordLmModel model(SmallLm(701));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     FastConfig());
  Rng rng(71);
  for (int i = 0; i < 4; ++i) {
    runner.Step(model.TrainShards(2, rng));
  }
  VariableStore before = runner.WorkerView();
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 1)).ok());
  EXPECT_EQ(runner.num_ranks(), 4);
  EXPECT_EQ(runner.resources().num_machines(), 4);
  ExpectBitIdentical(before, runner.WorkerView(), *model.graph());
}

TEST(ElasticRescaleTest, ShrinkPreservesValuesBitForBit) {
  WordLmModel model(SmallLm(702));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(4, 1),
                     FastConfig());
  Rng rng(72);
  for (int i = 0; i < 4; ++i) {
    runner.Step(model.TrainShards(4, rng));
  }
  VariableStore before = runner.WorkerView();
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 1)).ok());
  EXPECT_EQ(runner.num_ranks(), 2);
  ExpectBitIdentical(before, runner.WorkerView(), *model.graph());
}

TEST(ElasticRescaleTest, PsRoundTripIsBitIdentical) {
  // N -> M -> N with no intervening steps: the PS shards re-split twice and must land
  // exactly where they started — partitioning and membership never touch the numerics.
  WordLmModel model(SmallLm(703));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(73);
  for (int i = 0; i < 5; ++i) {
    runner.Step(model.TrainShards(4, rng));
  }
  VariableStore before = runner.WorkerView();
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 2)).ok());
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 2)).ok());
  ExpectBitIdentical(before, runner.WorkerView(), *model.graph());
}

TEST(ElasticRescaleTest, ArRoundTripIsBitIdentical) {
  // All-AR runner: growing clones the incumbent replica (the join broadcast),
  // shrinking truncates. Replicas are identical between steps, so the round trip is
  // exact. (Stepping AT the larger size is the documented exception — a different
  // rank count re-shards the batch, so trajectories legitimately diverge there.)
  WordLmModel model(SmallLm(704));
  ParallaxConfig config = FastConfig();
  config.engine_overrides.push_back({"*", "ar"});
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     config);
  Rng rng(74);
  for (int i = 0; i < 5; ++i) {
    runner.Step(model.TrainShards(2, rng));
  }
  VariableStore before = runner.WorkerView();
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 1)).ok());
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 1)).ok());
  ExpectBitIdentical(before, runner.WorkerView(), *model.graph());
  // And the shrunken runner still trains.
  float loss = runner.Step(model.TrainShards(2, rng));
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(ElasticRescaleTest, ShrinkToOneAndGrowFromOneStaysTrainable) {
  WordLmModel model(SmallLm(705));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(75);
  for (int i = 0; i < 3; ++i) {
    runner.Step(model.TrainShards(4, rng));
  }
  VariableStore at_four = runner.WorkerView();
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(1, 1)).ok());
  EXPECT_EQ(runner.num_ranks(), 1);
  ExpectBitIdentical(at_four, runner.WorkerView(), *model.graph());
  float solo_loss = runner.Step(model.TrainShards(1, rng));
  EXPECT_TRUE(std::isfinite(solo_loss));

  VariableStore at_one = runner.WorkerView();
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 2)).ok());
  EXPECT_EQ(runner.num_ranks(), 4);
  ExpectBitIdentical(at_one, runner.WorkerView(), *model.graph());
  float grown_loss = runner.Step(model.TrainShards(4, rng));
  EXPECT_TRUE(std::isfinite(grown_loss));
}

TEST(ElasticRescaleTest, RescaleBeforeFirstStepIsFailedPrecondition) {
  WordLmModel model(SmallLm(706));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     FastConfig());
  Status status = runner.Rescale(ResourceSpec::Homogeneous(4, 1));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ElasticRescaleTest, RejectsInvalidTargets) {
  WordLmModel model(SmallLm(707));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     FastConfig());
  Rng rng(77);
  runner.Step(model.TrainShards(2, rng));

  EXPECT_EQ(runner.Rescale(ResourceSpec{}).code(), StatusCode::kInvalidArgument);
  ResourceSpec lopsided;
  lopsided.machines.push_back({"a", {0, 1}});
  lopsided.machines.push_back({"b", {0}});
  EXPECT_EQ(runner.Rescale(lopsided).code(), StatusCode::kInvalidArgument);
  // The failed attempts changed nothing.
  EXPECT_EQ(runner.num_ranks(), 2);
  EXPECT_EQ(runner.rescales(), 0);
}

TEST(ElasticRescaleTest, SameShapeRescaleIsNoOp) {
  WordLmModel model(SmallLm(708));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(78);
  runner.Step(model.TrainShards(4, rng));
  VariableStore before = runner.WorkerView();
  const double clock_before = runner.simulated_seconds();
  ResourceSpec renamed = ResourceSpec::Homogeneous(2, 2);
  renamed.machines[0].hostname = "replacement-host";
  ASSERT_TRUE(runner.Rescale(renamed).ok());
  EXPECT_EQ(runner.rescales(), 0);
  EXPECT_EQ(runner.simulated_seconds(), clock_before);
  EXPECT_EQ(runner.resources().machines[0].hostname, "replacement-host");
  ExpectBitIdentical(before, runner.WorkerView(), *model.graph());
}

TEST(ElasticRescaleTest, MigrationChargedToSimulatedClock) {
  WordLmModel model(SmallLm(709));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     FastConfig());
  Rng rng(79);
  for (int i = 0; i < 3; ++i) {
    runner.Step(model.TrainShards(2, rng));
  }
  const double clock_before = runner.simulated_seconds();
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 1)).ok());
  ASSERT_EQ(runner.rescales(), 1);
  const RescaleEvent& event = runner.rescale_trail().front();
  EXPECT_GE(event.migration_seconds, 0.0);
  // Rescale's only clock charge is the migration itself.
  EXPECT_DOUBLE_EQ(runner.simulated_seconds(), clock_before + event.migration_seconds);
  // Best-of guarantee: the adopted layout never simulates slower on the new topology
  // than the incumbent does.
  EXPECT_LE(event.adopted_seconds, event.incumbent_seconds);
}

TEST(ElasticRescaleTest, RescaleTrailRecordsBothDirections) {
  WordLmModel model(SmallLm(710));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     FastConfig());
  Rng rng(80);
  for (int i = 0; i < 3; ++i) {
    runner.Step(model.TrainShards(4, rng));
  }
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 2)).ok());
  for (int i = 0; i < 2; ++i) {
    runner.Step(model.TrainShards(8, rng));
  }
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 2)).ok());
  ASSERT_EQ(runner.rescales(), 2);

  const RescaleEvent& grow = runner.rescale_trail()[0];
  EXPECT_EQ(grow.step, 3);
  EXPECT_EQ(grow.from_machines, 2);
  EXPECT_EQ(grow.to_machines, 4);
  EXPECT_EQ(grow.from_ranks, 4);
  EXPECT_EQ(grow.to_ranks, 8);
  const RescaleEvent& shrink = runner.rescale_trail()[1];
  EXPECT_EQ(shrink.step, 5);
  EXPECT_EQ(shrink.from_machines, 4);
  EXPECT_EQ(shrink.to_machines, 2);
  EXPECT_LE(shrink.adopted_seconds, shrink.incumbent_seconds);
}

TEST(ElasticRescaleTest, StepsContinueWithNewRankCount) {
  WordLmModel model(SmallLm(711));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     FastConfig());
  Rng rng(81);
  float loss = 0.0f;
  for (int i = 0; i < 10; ++i) {
    loss = runner.Step(model.TrainShards(2, rng));
  }
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 1)).ok());
  const double clock_at_rescale = runner.simulated_seconds();
  float grown = 0.0f;
  for (int i = 0; i < 10; ++i) {
    grown = runner.Step(model.TrainShards(4, rng));
  }
  EXPECT_TRUE(std::isfinite(grown));
  EXPECT_LT(grown, loss * 1.5f);  // training did not blow up across the rescale
  EXPECT_EQ(runner.iterations(), 20);
  EXPECT_GT(runner.simulated_seconds(), clock_at_rescale);
}

TEST(ElasticRescaleTest, StalePlacementsClearedOnShrink) {
  // A placement naming a departed server must not survive the rescale — it would hand
  // ResolveShardServers an out-of-range machine index.
  WordLmModel model(SmallLm(712));
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(4, 1),
                     FastConfig());
  Rng rng(82);
  runner.Step(model.TrainShards(4, rng));
  PartitionPlan pinned = runner.partition_plan();
  pinned.Set("embedding", 2);
  pinned.SetPlacement("embedding", {3, 1});  // piece 0 on the machine about to leave
  runner.Repartition(pinned);
  ASSERT_NE(runner.partition_plan().PlacementFor("embedding"), nullptr);

  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 1)).ok());
  EXPECT_EQ(runner.partition_plan().PlacementFor("embedding"), nullptr);
  for (const VariableSync& sync : runner.assignment()) {
    for (int server : sync.placement) {
      EXPECT_LT(server, 2) << sync.spec.name;
    }
  }
  float loss = runner.Step(model.TrainShards(2, rng));
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(ElasticRescaleTest, PlacementSearchOnNewTopologyStaysInRange) {
  // Racked cluster + per-variable placement search: every placement the post-rescale
  // plan carries must reference a machine of the NEW membership, grow and shrink.
  WordLmModel model(SmallLm(713));
  ParallaxConfig config = FastConfig();
  config.search_mode = PartitionSearchMode::kPerVariable;
  config.search.placement = true;
  config.hardware.topology.num_racks = 2;
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(4, 1),
                     config);
  Rng rng(83);
  runner.Step(model.TrainShards(4, rng));

  for (int machines : {2, 4}) {
    ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(machines, 1)).ok());
    for (const auto& [name, placement] : runner.partition_plan().placements()) {
      for (int server : placement) {
        EXPECT_GE(server, 0) << name;
        EXPECT_LT(server, machines) << name;
      }
    }
    for (const VariableSync& sync : runner.assignment()) {
      for (int server : sync.placement) {
        EXPECT_LT(server, machines) << sync.spec.name;
      }
    }
    float loss = runner.Step(model.TrainShards(machines, rng));
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(ElasticRescaleTest, TrajectoryIsDeterministic) {
  // Two identical runs with the same rescale schedule: identical losses, identical
  // final bits, identical simulated clock. Elasticity adds no hidden nondeterminism.
  auto train = [] {
    WordLmModel model(SmallLm(714));
    GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                       FastConfig());
    Rng rng(84);
    std::vector<float> losses;
    for (int i = 0; i < 3; ++i) {
      losses.push_back(runner.Step(model.TrainShards(2, rng)));
    }
    EXPECT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 1)).ok());
    for (int i = 0; i < 3; ++i) {
      losses.push_back(runner.Step(model.TrainShards(4, rng)));
    }
    EXPECT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 1)).ok());
    for (int i = 0; i < 3; ++i) {
      losses.push_back(runner.Step(model.TrainShards(2, rng)));
    }
    return std::make_tuple(losses, runner.WorkerView(), runner.simulated_seconds());
  };
  auto [losses_a, view_a, clock_a] = train();
  auto [losses_b, view_b, clock_b] = train();
  EXPECT_EQ(losses_a, losses_b);
  EXPECT_EQ(clock_a, clock_b);
  WordLmModel reference(SmallLm(714));
  ExpectBitIdentical(view_a, view_b, *reference.graph());
}

TEST(ElasticRescaleTest, MonitorSurvivesRescale) {
  // The adaptive loop and elasticity compose: a rescale re-anchors the monitor's
  // baselines (membership change is drift by another name) and monitoring continues.
  WordLmModel model(SmallLm(715));
  ParallaxConfig config = FastConfig();
  AdaptivePartitioningPolicy policy;
  policy.warmup_steps = 2;
  policy.check_interval = 2;
  policy.cooldown_steps = 2;
  config.adaptive_partitioning = policy;
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     config);
  Rng rng(85);
  for (int i = 0; i < 6; ++i) {
    runner.Step(model.TrainShards(2, rng));
  }
  ASSERT_NE(runner.sparsity_monitor(), nullptr);
  ASSERT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 1)).ok());
  // Re-anchored: right after the rescale, measured == baseline for every tracked
  // variable, so the rescale's own re-search is never re-litigated as drift.
  for (int v : runner.sparsity_monitor()->tracked()) {
    EXPECT_DOUBLE_EQ(runner.sparsity_monitor()->baseline_alpha(v),
                     runner.sparsity_monitor()->measured_alpha(v));
  }
  for (int i = 0; i < 6; ++i) {
    float loss = runner.Step(model.TrainShards(4, rng));
    EXPECT_TRUE(std::isfinite(loss));
  }
  EXPECT_EQ(runner.sparsity_monitor()->steps(), 12);
}

}  // namespace
}  // namespace parallax
