#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/core/frameworks.h"
#include "src/models/model_zoo.h"
#include "src/models/trainable.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

// Degraded-hardware scenarios: slow NIC, weak CPUs, fewer cores. The invariant: the
// numeric plane is untouched (same parameter values), only the simulated time shifts —
// and it shifts in the direction physics says it should.

TEST(FailureInjectionTest, DegradedNicSlowsIterationButStaysLive) {
  ModelSpec model = LmSpec();
  FrameworkOptions options;
  options.sparse_partitions = 64;
  ClusterSpec healthy = ClusterSpec::Paper();
  ClusterSpec degraded = healthy;
  degraded.nic_bandwidth /= 10.0;  // 10 Gbps instead of 100
  for (Framework framework : {Framework::kTfPs, Framework::kHorovod, Framework::kParallax}) {
    double fast = MakeFrameworkSimulator(framework, healthy, model, options)
                      .MeasureIterationSeconds();
    double slow = MakeFrameworkSimulator(framework, degraded, model, options)
                      .MeasureIterationSeconds();
    EXPECT_GT(slow, fast) << FrameworkName(framework);
    EXPECT_LT(slow, fast * 40) << FrameworkName(framework) << " (no livelock)";
  }
}

TEST(FailureInjectionTest, FewerCoresHurtsPsMoreThanAr) {
  // Server CPU is the PS bottleneck resource; AR barely uses it.
  ModelSpec model = LmSpec();
  FrameworkOptions options;
  options.sparse_partitions = 128;
  ClusterSpec healthy = ClusterSpec::Paper();
  ClusterSpec weak = healthy;
  weak.cores_per_machine = 4;
  double ps_ratio = MakeFrameworkSimulator(Framework::kTfPs, weak, model, options)
                        .MeasureIterationSeconds() /
                    MakeFrameworkSimulator(Framework::kTfPs, healthy, model, options)
                        .MeasureIterationSeconds();
  double ar_ratio = MakeFrameworkSimulator(Framework::kHorovod, weak, model, options)
                        .MeasureIterationSeconds() /
                    MakeFrameworkSimulator(Framework::kHorovod, healthy, model, options)
                        .MeasureIterationSeconds();
  EXPECT_GT(ps_ratio, ar_ratio);
}

TEST(FailureInjectionTest, SlowPcieHurtsLocalAggregationPath) {
  ModelSpec model = NmtSpec();
  FrameworkOptions options;
  options.sparse_partitions = 64;
  ClusterSpec healthy = ClusterSpec::Paper();
  ClusterSpec slow_pcie = healthy;
  slow_pcie.pcie_bandwidth /= 8.0;
  double healthy_s = MakeFrameworkSimulator(Framework::kOptPs, healthy, model, options)
                         .MeasureIterationSeconds();
  double degraded_s = MakeFrameworkSimulator(Framework::kOptPs, slow_pcie, model, options)
                          .MeasureIterationSeconds();
  EXPECT_GT(degraded_s, healthy_s * 1.2);
}

TEST(FailureInjectionTest, NumericsUnaffectedByHardwareDegradation) {
  // Train the same model on healthy and degraded hardware profiles: the learning
  // trajectory must be bit-identical; only the simulated clock differs.
  auto train = [](double nic_bandwidth) {
    WordLmModel model({.vocab_size = 80, .embedding_dim = 6, .hidden_dim = 10,
                       .batch_per_rank = 12, .seed = 801});
    ParallaxConfig config;
    config.learning_rate = 0.4f;
    config.hardware.nic_bandwidth = nic_bandwidth;
    GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                       config);
    Rng rng(81);
    float loss = 0.0f;
    for (int i = 0; i < 6; ++i) {
      loss = runner.Step(model.TrainShards(4, rng));
    }
    return std::make_pair(loss, runner.simulated_seconds());
  };
  auto [healthy_loss, healthy_time] = train(12.5e9);
  auto [degraded_loss, degraded_time] = train(1.25e9);
  EXPECT_EQ(healthy_loss, degraded_loss);
  EXPECT_GT(degraded_time, healthy_time);
}

TEST(FailureInjectionTest, RankDeathRecoversFromLastCheckpointWithBoundedReplay) {
  // The crash-recovery contract (docs/elasticity.md): a run that dies between
  // checkpoints resumes from the LAST checkpoint via a fresh runner + RestoreFrom and
  // replays at most interval_steps steps — and because partition layout never touches
  // the numerics, the replayed steps reproduce the uninterrupted run bit-for-bit on
  // the same sample sequence. The recovery is also honestly charged: the recovered
  // clock ends strictly above the uninterrupted one (it paid the checkpoint read).
  WordLmModel model({.vocab_size = 100, .embedding_dim = 8, .hidden_dim = 12,
                     .batch_per_rank = 16, .seed = 811});
  constexpr int kSteps = 12;
  constexpr int kInterval = 4;
  constexpr int kDeathStep = 10;  // dies 2 steps after the checkpoint at step 8
  Rng feed_rng(91);
  std::vector<std::vector<FeedMap>> feed_log;
  feed_log.reserve(kSteps);
  for (int i = 0; i < kSteps; ++i) {
    feed_log.push_back(model.TrainShards(2, feed_rng));
  }
  auto build = [&](const std::string& path) {
    auto runner = RunnerBuilder(model.graph(), model.loss())
                      .WithResources(ResourceSpec::Homogeneous(2, 1))
                      .WithLearningRate(0.4f)
                      .WithSearch({})
                      .WithCheckpoint(path, kInterval)
                      .Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    return std::move(runner).value();
  };

  const std::string path_a = std::string(::testing::TempDir()) + "/fi_uninterrupted.px";
  auto uninterrupted = build(path_a);
  std::vector<float> reference_losses;
  for (int i = 0; i < kSteps; ++i) {
    reference_losses.push_back(uninterrupted->Step(feed_log[i]));
  }

  const std::string path_b = std::string(::testing::TempDir()) + "/fi_interrupted.px";
  {
    auto doomed = build(path_b);
    for (int i = 0; i < kDeathStep; ++i) {
      doomed->Step(feed_log[i]);
    }
    // Rank death: the runner is destroyed here with 2 steps of progress never saved.
  }

  auto recovered = build(path_b);
  ASSERT_TRUE(recovered->RestoreFrom(path_b).ok());
  ASSERT_EQ(recovered->last_checkpoint_step(), 8);
  const int replayed = kSteps - static_cast<int>(recovered->last_checkpoint_step());
  EXPECT_LE(replayed, kInterval);  // bounded replay: never more than one interval
  std::vector<float> replay_losses;
  for (int i = static_cast<int>(recovered->last_checkpoint_step()); i < kSteps; ++i) {
    replay_losses.push_back(recovered->Step(feed_log[i]));
  }
  EXPECT_EQ(recovered->iterations(), kSteps);
  for (int k = 0; k < replayed; ++k) {
    EXPECT_EQ(replay_losses[static_cast<size_t>(k)],
              reference_losses[static_cast<size_t>(kSteps - replayed + k)])
        << "replayed step " << kSteps - replayed + k;
  }
  VariableStore recovered_view = recovered->WorkerView();
  VariableStore reference_view = uninterrupted->WorkerView();
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    EXPECT_TRUE(AllClose(recovered_view.Get(static_cast<int>(v)),
                         reference_view.Get(static_cast<int>(v)), 0.0f))
        << model.graph()->variables()[v].name;
  }
  EXPECT_GT(recovered->simulated_seconds(), uninterrupted->simulated_seconds());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(FailureInjectionTest, RestoreOntoLiveRunnerRewindsToTheCheckpoint) {
  // The non-deferred restore path: RestoreFrom on an already-initialized runner swaps
  // the live engine values and rewinds the step counter to the checkpoint's.
  WordLmModel model({.vocab_size = 80, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 812});
  ParallaxConfig config;
  config.learning_rate = 0.4f;
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     config);
  Rng rng(92);
  std::vector<std::vector<FeedMap>> feed_log;
  for (int i = 0; i < 8; ++i) {
    feed_log.push_back(model.TrainShards(2, rng));
  }
  for (int i = 0; i < 4; ++i) {
    runner.Step(feed_log[static_cast<size_t>(i)]);
  }
  const std::string path = std::string(::testing::TempDir()) + "/fi_rewind.px";
  ASSERT_TRUE(runner.CheckpointTo(path).ok());
  VariableStore at_checkpoint = runner.WorkerView();
  std::vector<float> first_pass;
  for (int i = 4; i < 8; ++i) {
    first_pass.push_back(runner.Step(feed_log[static_cast<size_t>(i)]));
  }

  ASSERT_TRUE(runner.RestoreFrom(path).ok());
  EXPECT_EQ(runner.iterations(), 4);
  VariableStore rewound = runner.WorkerView();
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    EXPECT_TRUE(AllClose(rewound.Get(static_cast<int>(v)),
                         at_checkpoint.Get(static_cast<int>(v)), 0.0f))
        << model.graph()->variables()[v].name;
  }
  // Replaying the same feeds reproduces the same losses, bit-for-bit.
  std::vector<float> second_pass;
  for (int i = 4; i < 8; ++i) {
    second_pass.push_back(runner.Step(feed_log[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(first_pass, second_pass);
  std::remove(path.c_str());
}

TEST(FailureInjectionTest, StragglerGpuStretchesEveryIteration) {
  // Synchronous training runs at the pace of the slowest worker: doubling one model's
  // compute on a uniform cluster vs making the whole cluster 2x slower should both
  // stretch iterations — the barrier semantics the chief-worker protocol implies.
  ModelSpec model = ResNet50Spec();
  FrameworkOptions options;
  ClusterSpec cluster = ClusterSpec::Paper();
  double base = MakeFrameworkSimulator(Framework::kParallax, cluster, model, options)
                    .MeasureIterationSeconds();
  ModelSpec slow_model = model;
  slow_model.gpu_compute_seconds *= 2.0;
  double slow = MakeFrameworkSimulator(Framework::kParallax, cluster, slow_model, options)
                    .MeasureIterationSeconds();
  EXPECT_GT(slow, base * 1.8);
}

}  // namespace
}  // namespace parallax
