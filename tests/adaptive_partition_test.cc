// The adaptive re-partitioning loop (docs/adaptivity.md): alpha schedules produce
// drift, the SparsityMonitor measures it from the engines' nnz observations, and the
// runner re-searches + Repartitions when the measured state warrants it. Covers the
// estimator (union inversion, EWMA convergence), the policy gates (warmup / interval /
// cooldown / hysteresis), the end-to-end adaptive-vs-pinned demo, and determinism of
// the whole trajectory.
#include <gtest/gtest.h>

#include <cmath>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/core/sparsity_monitor.h"
#include "src/data/synthetic.h"
#include "src/models/trainable.h"
#include "src/tensor/tensor_ops.h"
#include "tests/drift_scenario.h"

namespace parallax {
namespace {

// ---- AlphaSchedule -------------------------------------------------------------------

TEST(AlphaScheduleTest, EmptyMeansConstantOne) {
  AlphaSchedule schedule;
  EXPECT_EQ(schedule.ValueAt(0), 1.0);
  EXPECT_EQ(schedule.ValueAt(1'000'000), 1.0);
}

TEST(AlphaScheduleTest, InterpolatesBetweenKnotsAndClampsOutside) {
  AlphaSchedule schedule{{{10, 0.2}, {20, 0.6}, {40, 0.6}}};
  EXPECT_DOUBLE_EQ(schedule.ValueAt(0), 0.2);    // clamped before the first knot
  EXPECT_DOUBLE_EQ(schedule.ValueAt(10), 0.2);
  EXPECT_DOUBLE_EQ(schedule.ValueAt(15), 0.4);   // halfway between 0.2 and 0.6
  EXPECT_DOUBLE_EQ(schedule.ValueAt(20), 0.6);
  EXPECT_DOUBLE_EQ(schedule.ValueAt(30), 0.6);   // flat plateau
  EXPECT_DOUBLE_EQ(schedule.ValueAt(99), 0.6);   // clamped after the last knot
}

TEST(AlphaScheduleTest, StepChangeSwitchesHard) {
  AlphaSchedule schedule = AlphaSchedule::StepChange(10, 0.1, 0.9);
  EXPECT_DOUBLE_EQ(schedule.ValueAt(0), 0.1);
  EXPECT_DOUBLE_EQ(schedule.ValueAt(9), 0.1);
  EXPECT_DOUBLE_EQ(schedule.ValueAt(10), 0.9);
  EXPECT_DOUBLE_EQ(schedule.ValueAt(50), 0.9);
}

TEST(ZipfBigramTextTest, ActiveFractionRestrictsSampledIds) {
  ZipfBigramText text({.vocab_size = 200,
                       .zipf_exponent = 0.5,
                       .noise = 0.0,
                       .seed = 5,
                       .active_fraction = AlphaSchedule::StepChange(10, 0.1, 1.0)});
  EXPECT_EQ(text.ActiveVocab(0), 20);
  EXPECT_EQ(text.ActiveVocab(10), 200);
  Rng rng(17);
  TokenBatch early = text.Sample(256, rng, 0);
  int64_t early_max = 0;
  for (int64_t id : early.ids.ints()) {
    early_max = std::max(early_max, id);
  }
  EXPECT_LT(early_max, 20);
  TokenBatch late = text.Sample(256, rng, 10);
  int64_t late_max = 0;
  for (int64_t id : late.ids.ints()) {
    late_max = std::max(late_max, id);
  }
  EXPECT_GE(late_max, 20);  // the full vocabulary is active again
}

// ---- SparsityMonitor estimation ------------------------------------------------------

TEST(SparsityMonitorTest, PerWorkerObservationsConvergeExactly) {
  // contributions == 1 observations are direct ratios: the EWMA converges
  // geometrically onto the true alpha from any baseline.
  SparsityMonitor monitor({.ewma_decay = 0.25, .warmup_steps = 8});
  monitor.Track(0, 1000, /*baseline_alpha=*/0.5);
  double expected_at_warmup = 0.5;
  for (int step = 0; step < 60; ++step) {
    monitor.ObserveSparseStep(0, 120, 1);
    monitor.EndStep();
    if (step < 8) {
      expected_at_warmup = 0.75 * expected_at_warmup + 0.25 * 0.12;
    }
  }
  EXPECT_NEAR(monitor.measured_alpha(0), 0.12, 1e-6);
  // The baseline self-calibrated to the EWMA at the end of warmup and stays there
  // until a verdict re-anchors it.
  EXPECT_NEAR(monitor.baseline_alpha(0), expected_at_warmup, 1e-12);
}

TEST(SparsityMonitorTest, UnionObservationsInvertToPerWorkerAlpha) {
  // k-rank unions are inverted through 1-(1-u)^(1/k). Feed the exact union of the
  // independent-access model and expect the true per-worker alpha back.
  const double alpha = 0.12;
  const int ranks = 4;
  const int64_t rows = 10'000;
  const double union_ratio = 1.0 - std::pow(1.0 - alpha, ranks);
  const auto union_rows = static_cast<int64_t>(std::llround(union_ratio * rows));
  SparsityMonitor monitor({.ewma_decay = 0.3});
  monitor.Track(7, rows, /*baseline_alpha=*/0.5);
  for (int step = 0; step < 80; ++step) {
    monitor.ObserveSparseStep(7, union_rows, ranks);
    monitor.EndStep();
  }
  EXPECT_NEAR(monitor.measured_alpha(7), alpha, 1e-3);
}

TEST(SparsityMonitorTest, UntrackedVariablesAreIgnored) {
  SparsityMonitor monitor({.ewma_decay = 0.5});
  monitor.Track(3, 100, 0.2);
  monitor.ObserveSparseStep(99, 100, 1);  // never registered: no effect, no crash
  monitor.EndStep();
  EXPECT_FALSE(monitor.Tracks(99));
  EXPECT_DOUBLE_EQ(monitor.measured_alpha(3), 0.2);  // no observation, EWMA untouched
}

TEST(SparsityMonitorTest, DriftGatesHonorWarmupIntervalAndCooldown) {
  // Decay 1 pins the EWMA to the newest observation, so the gate arithmetic is the
  // only moving part.
  SparsityMonitor monitor(
      {.ewma_decay = 1.0, .warmup_steps = 4, .check_interval = 3, .cooldown_steps = 6});
  monitor.Track(0, 100, 0.5);
  auto run_steps = [&](int n) {
    for (int i = 0; i < n; ++i) {
      monitor.ObserveSparseStep(0, 10, 1);
      monitor.EndStep();
    }
  };
  run_steps(3);
  EXPECT_FALSE(monitor.DriftCheckDue());  // still in warmup
  run_steps(1);
  EXPECT_TRUE(monitor.DriftCheckDue());   // warmup over, interval satisfied
  monitor.NoteCheck();
  EXPECT_FALSE(monitor.DriftCheckDue());  // interval restarts after a check
  run_steps(3);
  EXPECT_TRUE(monitor.DriftCheckDue());
  AdaptationVerdict verdict;
  verdict.adopted = true;
  monitor.RecordVerdict(verdict);
  EXPECT_EQ(monitor.repartition_count(), 1);
  run_steps(3);
  EXPECT_FALSE(monitor.DriftCheckDue());  // cooldown (6) outlasts the interval (3)
  run_steps(3);
  EXPECT_TRUE(monitor.DriftCheckDue());
  // RecordVerdict re-anchored the baseline onto the EWMA: measured drift collapses.
  int argmax = -1;
  EXPECT_LT(monitor.MaxRelativeDrift(&argmax), 0.2);
  EXPECT_EQ(argmax, 0);
}

// ---- Runner integration --------------------------------------------------------------

// DriftingLm / AccumulationDominatedCosts — the canonical drift scenario — live in
// tests/drift_scenario.h, shared with the equivalence suite's monitoring invariant.

AdaptivePartitioningPolicy TestPolicy(bool repartition) {
  AdaptivePartitioningPolicy policy;
  policy.ewma_decay = 0.5;  // settle fast: tests run tens of steps, not thousands
  policy.drift_threshold = 0.3;
  policy.hysteresis = 0.02;
  policy.warmup_steps = 4;
  policy.check_interval = 4;
  policy.cooldown_steps = 100;  // at most one verdict per run: trajectories stay small
  policy.repartition = repartition;
  return policy;
}

struct AdaptiveRun {
  std::vector<float> losses;
  std::vector<AdaptationVerdict> trail;
  double simulated_seconds = 0.0;
  PartitionPlan plan;  // the layout in force at the end of the run
  int repartitions = 0;
  double measured_alpha_embedding = 0.0;
};

AdaptiveRun TrainDriftingLm(uint64_t seed, int steps, int64_t drift_step,
                            bool adaptive, bool repartition) {
  WordLmModel model(DriftingLm(seed, drift_step));
  RunnerBuilder builder(model.graph(), model.loss());
  builder.WithResources("m0:0,1;m1:0,1")
      .WithLearningRate(0.3f)
      .WithSyncCosts(AccumulationDominatedCosts())
      .WithCompute(2e-3, 4)
      .WithSearch({});
  if (adaptive) {
    builder.WithAdaptivePartitioning(TestPolicy(repartition));
  }
  auto runner = builder.Build();
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  AdaptiveRun run;
  Rng rng(seed * 31 + 7);
  for (int step = 0; step < steps; ++step) {
    run.losses.push_back(runner.value()->Step(model.TrainShards(4, rng, step)));
  }
  run.simulated_seconds = runner.value()->simulated_seconds();
  run.plan = runner.value()->partition_plan();
  run.repartitions = runner.value()->adaptive_repartitions();
  if (const SparsityMonitor* monitor = runner.value()->sparsity_monitor()) {
    run.trail = monitor->trail();
    for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
      if (model.graph()->variables()[v].name == "embedding") {
        run.measured_alpha_embedding = monitor->measured_alpha(static_cast<int>(v));
      }
    }
  }
  return run;
}

TEST(AdaptiveRunnerTest, MeasuredAlphaConvergesToTheDataDistribution) {
  // Constant full-vocabulary distribution: the closed-form per-worker access ratio of
  // B near-uniform draws over V rows is 1-(1-1/V)^B. The monitor's EWMA (fed by union
  // observations through the inversion) must land within a few percent of it.
  const int64_t vocab = 250;
  const int64_t batch = 64;
  AdaptiveRun run = TrainDriftingLm(/*seed=*/41, /*steps=*/30,
                                    /*drift_step=*/0,  // full vocab from step 0
                                    /*adaptive=*/true, /*repartition=*/false);
  const double expected =
      1.0 - std::pow(1.0 - 1.0 / static_cast<double>(vocab), static_cast<double>(batch));
  EXPECT_GT(run.measured_alpha_embedding, expected * 0.85);
  EXPECT_LT(run.measured_alpha_embedding, expected * 1.15);
}

TEST(AdaptiveRunnerTest, DriftTriggersRepartitionThatLowersSimulatedTime) {
  // The end-to-end demo: same data, same drift, same policy cadence — one run may
  // repartition, the control is pinned to its startup layout. The adaptive run must
  // (a) actually repartition, (b) beat the pinned run on the simulated clock, and
  // (c) produce bit-identical losses (partitioning is layout, never math).
  const int kSteps = 40;
  const int64_t kDriftStep = 10;
  AdaptiveRun adaptive = TrainDriftingLm(42, kSteps, kDriftStep, true, true);
  AdaptiveRun pinned = TrainDriftingLm(42, kSteps, kDriftStep, true, false);

  ASSERT_EQ(adaptive.repartitions, 1);
  ASSERT_EQ(adaptive.trail.size(), 1u);
  const AdaptationVerdict& verdict = adaptive.trail.front();
  EXPECT_TRUE(verdict.adopted);
  EXPECT_GT(verdict.step, kDriftStep);  // reacted to the drift, not the startup state
  // Uniform mode: both layouts are one P, and the adopted one is a different P.
  EXPECT_TRUE(verdict.from_plan.uniform()) << verdict.from_plan.ToString();
  EXPECT_TRUE(verdict.to_plan.uniform()) << verdict.to_plan.ToString();
  EXPECT_NE(verdict.to_plan, verdict.from_plan);
  EXPECT_EQ(adaptive.plan, verdict.to_plan);
  // The hysteresis contract, on the simulated numbers the decision actually used.
  EXPECT_LT(verdict.best_seconds, verdict.current_seconds * (1.0 - 0.02));
  EXPECT_GT(verdict.drift, 0.3);

  EXPECT_EQ(pinned.repartitions, 0);
  EXPECT_EQ(pinned.plan, verdict.from_plan);
  // Both runs' timing planes track the measured alphas (the pinned run records the
  // same drift verdicts, it just never swaps the layout), so the clock comparison is
  // apples to apples — and the adaptive layout must win.
  ASSERT_EQ(pinned.trail.size(), 1u);
  EXPECT_FALSE(pinned.trail.front().adopted);
  EXPECT_LT(adaptive.simulated_seconds, pinned.simulated_seconds);

  // Layout never touches the numerics.
  ASSERT_EQ(adaptive.losses.size(), pinned.losses.size());
  for (size_t s = 0; s < adaptive.losses.size(); ++s) {
    EXPECT_EQ(adaptive.losses[s], pinned.losses[s]) << "loss diverged at step " << s;
  }
}

TEST(AdaptiveRunnerTest, TrajectoryIsDeterministic) {
  AdaptiveRun first = TrainDriftingLm(43, 32, 10, true, true);
  AdaptiveRun second = TrainDriftingLm(43, 32, 10, true, true);
  EXPECT_EQ(first.losses, second.losses);
  EXPECT_EQ(first.simulated_seconds, second.simulated_seconds);
  EXPECT_EQ(first.plan, second.plan);
  ASSERT_EQ(first.trail.size(), second.trail.size());
  for (size_t i = 0; i < first.trail.size(); ++i) {
    EXPECT_EQ(first.trail[i].step, second.trail[i].step);
    EXPECT_EQ(first.trail[i].variable, second.trail[i].variable);
    EXPECT_EQ(first.trail[i].from_plan, second.trail[i].from_plan);
    EXPECT_EQ(first.trail[i].best_plan, second.trail[i].best_plan);
    EXPECT_EQ(first.trail[i].to_plan, second.trail[i].to_plan);
    EXPECT_EQ(first.trail[i].adopted, second.trail[i].adopted);
    EXPECT_EQ(first.trail[i].current_seconds, second.trail[i].current_seconds);
    EXPECT_EQ(first.trail[i].best_seconds, second.trail[i].best_seconds);
  }
}

TEST(AdaptiveRunnerTest, HysteresisSuppressesFlappingUnderNoisyAlpha) {
  // A noisy (oscillating) schedule keeps crossing the drift threshold, but an
  // unattainable hysteresis margin must veto every adoption: the layout never moves,
  // while the trail records the vetoed verdicts.
  WordLmModel::Options options = DriftingLm(44, 0);
  options.active_vocab_fraction =
      AlphaSchedule{{{0, 0.06}, {6, 1.0}, {12, 0.06}, {18, 1.0}, {24, 0.06}}};
  WordLmModel model(options);
  AdaptivePartitioningPolicy policy = TestPolicy(true);
  policy.hysteresis = 1.0;   // nothing can improve by 100%
  policy.cooldown_steps = 4; // re-check often: give flapping every chance to happen
  auto runner = RunnerBuilder(model.graph(), model.loss())
                    .WithResources("m0:0,1;m1:0,1")
                    .WithLearningRate(0.3f)
                    .WithSearch({})
                    .WithAdaptivePartitioning(policy)
                    .Build();
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  Rng rng(91);
  const PartitionPlan initial_plan = [&] {
    runner.value()->Step(model.TrainShards(4, rng, 0));
    return runner.value()->partition_plan();
  }();
  for (int step = 1; step < 30; ++step) {
    runner.value()->Step(model.TrainShards(4, rng, step));
  }
  EXPECT_EQ(runner.value()->adaptive_repartitions(), 0);
  EXPECT_EQ(runner.value()->partition_plan(), initial_plan);
  const SparsityMonitor* monitor = runner.value()->sparsity_monitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_GE(monitor->trail().size(), 1u);  // drift was seen...
  for (const AdaptationVerdict& verdict : monitor->trail()) {
    EXPECT_FALSE(verdict.adopted);         // ...but never acted on
    EXPECT_EQ(verdict.to_plan, verdict.from_plan);
  }
}

TEST(AdaptiveRunnerTest, MonitorAbsentWithoutPolicyAndHarmlessWithoutSparseVars) {
  // No policy -> no monitor.
  WordLmModel model(DriftingLm(45, 0));
  auto plain = RunnerBuilder(model.graph(), model.loss())
                   .WithResources("m0:0,1;m1:0,1")
                   .WithSearch({})
                   .Build();
  ASSERT_TRUE(plain.ok());
  Rng rng(92);
  plain.value()->Step(model.TrainShards(4, rng));
  EXPECT_EQ(plain.value()->sparsity_monitor(), nullptr);
  EXPECT_EQ(plain.value()->adaptive_repartitions(), 0);

  // Dense-only model: policy requested, nothing observable -> monitor disabled, runs fine.
  MlpClassifierModel dense({.feature_dims = 10, .num_classes = 5, .hidden_dim = 12,
                            .batch_per_rank = 12, .seed = 46});
  auto runner = RunnerBuilder(dense.graph(), dense.loss())
                    .WithResources("m0:0,1;m1:0,1")
                    .WithSearch({})
                    .WithAdaptivePartitioning(TestPolicy(true))
                    .Build();
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  Rng dense_rng(93);
  for (int step = 0; step < 6; ++step) {
    runner.value()->Step(dense.TrainShards(4, dense_rng));
  }
  EXPECT_EQ(runner.value()->sparsity_monitor(), nullptr);
  EXPECT_EQ(runner.value()->adaptive_repartitions(), 0);
}

// ---- Per-variable partition plans ----------------------------------------------------

TEST(PerVariablePlanTest, SkewedModelAdoptsHeterogeneousPlanBeatingBestUniform) {
  // The acceptance scenario: one hot embedding (alpha ~ 0.004) + one near-dense
  // softmax table (alpha ~ 0.6). The per-variable search must adopt a heterogeneous
  // plan — few pieces for the hot table, many for the wide one — whose simulated
  // iteration time beats the best *uniform* P by a clear margin.
  EmbeddingSkewModel model(SkewedTwoVarModel(29));
  auto runner = RunnerBuilder(model.graph(), model.loss())
                    .WithResources("m0:0,1;m1:0,1")
                    .WithSearchMode(PartitionSearchMode::kPerVariable)
                    .WithSyncCosts(SkewedPartitionCosts())
                    .WithCompute(1e-3, 4)
                    .Build();
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  Rng rng(41);
  runner.value()->Step(model.TrainShards(4, rng));

  const PartitionPlan& plan = runner.value()->partition_plan();
  const int hot = plan.For("hot_embedding");
  const int wide = plan.For("wide_softmax");
  EXPECT_LT(hot, wide) << "plan " << plan.ToString();   // heterogeneous, right shape
  EXPECT_LE(hot, 2) << "hot embedding wants (nearly) whole";
  EXPECT_GE(wide, 6) << "wide table wants many pieces";
  // The adopted counts flow into the SyncPlan (and so into every engine's shards).
  for (const VariableSync& sync : runner.value()->assignment()) {
    if (sync.spec.name == "hot_embedding") {
      EXPECT_EQ(sync.partitions, hot);
    }
    if (sync.spec.name == "wide_softmax") {
      EXPECT_EQ(sync.partitions, wide);
    }
  }

  const auto& search = runner.value()->plan_search();
  ASSERT_TRUE(search.has_value());
  EXPECT_EQ(search->plan, plan);
  // Beats the best uniform layout on the simulated clock — by at least 5% here
  // (measured gap in this scenario is ~20%; see docs/perf.md).
  EXPECT_LT(search->seconds, search->uniform_seconds * (1.0 - 0.05));
}

TEST(PerVariablePlanTest, PerVariableSearchIsDeterministic) {
  auto run_once = [] {
    EmbeddingSkewModel model(SkewedTwoVarModel(29));
    auto runner = RunnerBuilder(model.graph(), model.loss())
                      .WithResources("m0:0,1;m1:0,1")
                      .WithSearchMode(PartitionSearchMode::kPerVariable)
                      .WithSyncCosts(SkewedPartitionCosts())
                      .WithCompute(1e-3, 4)
                      .Build();
    EXPECT_TRUE(runner.ok());
    Rng rng(41);
    runner.value()->Step(model.TrainShards(4, rng));
    return std::make_pair(runner.value()->partition_plan(),
                          runner.value()->plan_search()->seconds);
  };
  auto [first_plan, first_seconds] = run_once();
  auto [second_plan, second_seconds] = run_once();
  EXPECT_EQ(first_plan, second_plan);
  EXPECT_EQ(first_seconds, second_seconds);
}

TEST(PerVariablePlanTest, StartUpSearchIgnoresTheConfiguredWarmStart) {
  // A start-up search has no earlier plan to resume: the all-ones layout it starts
  // from was never searched. Only the adaptive loop warm-starts, so the warm_start bit
  // of WithSearch leaves the start-up search as it is without it.
  auto start_up_search = [](bool warm_start) {
    EmbeddingSkewModel model(SkewedTwoVarModel(29));
    auto runner = RunnerBuilder(model.graph(), model.loss())
                      .WithResources("m0:0,1;m1:0,1")
                      .WithSearch({.warm_start = warm_start})
                      .WithSearchMode(PartitionSearchMode::kPerVariable)
                      .WithSyncCosts(SkewedPartitionCosts())
                      .WithCompute(1e-3, 4)
                      .Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    Rng rng(41);
    runner.value()->Step(model.TrainShards(4, rng));
    return runner.value()->plan_search().value();
  };
  const PartitionPlanSearchResult cold = start_up_search(false);
  const PartitionPlanSearchResult configured = start_up_search(true);
  EXPECT_FALSE(configured.warm_started);
  EXPECT_EQ(configured.plan, cold.plan);
  EXPECT_EQ(configured.seconds, cold.seconds);
  EXPECT_EQ(configured.evaluations, cold.evaluations);
  EXPECT_EQ(configured.uniform.samples, cold.uniform.samples);
}

TEST(PerVariablePlanTest, AdaptiveLoopResearchesPerVariableOnDriftAndChargesMigration) {
  // Drift under PartitionSearchMode::kPerVariable: the re-search runs at the monitor's
  // measured alphas, adopts a plan (not just a shared P), and the adoption step's clock
  // delta exceeds a steady-state iteration by exactly the verdict's migration cost.
  WordLmModel model(DriftingLm(48, /*drift_step=*/10));
  auto runner = RunnerBuilder(model.graph(), model.loss())
                    .WithResources("m0:0,1;m1:0,1")
                    .WithLearningRate(0.3f)
                    .WithSyncCosts(AccumulationDominatedCosts())
                    .WithCompute(2e-3, 4)
                    .WithSearch({})
                    .WithSearchMode(PartitionSearchMode::kPerVariable)
                    .WithAdaptivePartitioning(TestPolicy(true))
                    .Build();
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  Rng rng(48 * 31 + 7);
  double previous_delta = 0.0;
  double adoption_delta = -1.0;
  double before = 0.0;
  for (int step = 0; step < 40; ++step) {
    const int repartitions_before = runner.value()->adaptive_repartitions();
    runner.value()->Step(model.TrainShards(4, rng, step));
    const double delta = runner.value()->simulated_seconds() - before;
    before = runner.value()->simulated_seconds();
    if (runner.value()->adaptive_repartitions() > repartitions_before) {
      adoption_delta = delta;
      break;
    }
    previous_delta = delta;
  }
  ASSERT_GT(adoption_delta, 0.0) << "drift never produced an adopted repartition";

  const SparsityMonitor* monitor = runner.value()->sparsity_monitor();
  ASSERT_NE(monitor, nullptr);
  const AdaptationVerdict& verdict = monitor->trail().back();
  EXPECT_TRUE(verdict.adopted);
  EXPECT_TRUE(verdict.amortized);
  EXPECT_GT(verdict.migration_seconds, 0.0);
  EXPECT_NE(verdict.from_plan, verdict.to_plan);
  EXPECT_EQ(runner.value()->partition_plan(), verdict.to_plan);
  // The clock charge: the adoption step simulated the *old* layout (MaybeAdapt runs
  // after the clock advanced) and then paid the migration on top. The step before ran
  // the same layout in steady state, so the difference is exactly the migration.
  EXPECT_NEAR(adoption_delta - previous_delta, verdict.migration_seconds,
              1e-9 + 0.01 * verdict.migration_seconds);
}

TEST(PerVariablePlanTest, UnamortizedMigrationVetoesAdoption) {
  // Same drift, same win — but a short revisit window (max(cooldown_steps=1,
  // check_interval=4) = 4 steps) cannot amortize a migration inflated by expensive
  // per-piece request handling (the request cost parallelizes across server cores
  // inside an iteration, so the win itself barely moves). The verdict must record
  // hysteresis-clearing improvement that is vetoed purely by amortization.
  auto run = [](int cooldown_steps) {
    WordLmModel model(DriftingLm(49, /*drift_step=*/10));
    SyncCostParams costs = AccumulationDominatedCosts();
    costs.request_overhead_seconds = 300e-6;
    AdaptivePartitioningPolicy policy = TestPolicy(true);
    policy.cooldown_steps = cooldown_steps;
    auto runner = RunnerBuilder(model.graph(), model.loss())
                      .WithResources("m0:0,1;m1:0,1")
                      .WithLearningRate(0.3f)
                      .WithSyncCosts(costs)
                      .WithCompute(2e-3, 4)
                      .WithSearch({})
                      .WithAdaptivePartitioning(policy)
                      .Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    Rng rng(49 * 31 + 7);
    for (int step = 0; step < 40; ++step) {
      runner.value()->Step(model.TrainShards(4, rng, step));
    }
    return std::move(runner.value());
  };

  std::unique_ptr<GraphRunner> starved = run(/*cooldown_steps=*/1);
  const SparsityMonitor* monitor = starved->sparsity_monitor();
  ASSERT_NE(monitor, nullptr);
  ASSERT_GE(monitor->trail().size(), 1u);
  const AdaptationVerdict& vetoed = monitor->trail().front();
  EXPECT_FALSE(vetoed.adopted);
  EXPECT_FALSE(vetoed.amortized);
  EXPECT_GT(vetoed.migration_seconds, 0.0);
  // The candidate was good enough on pure iteration time — amortization is what said no.
  EXPECT_LT(vetoed.best_seconds, vetoed.current_seconds * (1.0 - 0.02));
  EXPECT_EQ(starved->adaptive_repartitions(), 0);

  // A realistic window amortizes the same migration and adopts.
  std::unique_ptr<GraphRunner> patient = run(/*cooldown_steps=*/100);
  ASSERT_GE(patient->sparsity_monitor()->trail().size(), 1u);
  const AdaptationVerdict& adopted = patient->sparsity_monitor()->trail().front();
  EXPECT_TRUE(adopted.amortized);
  EXPECT_TRUE(adopted.adopted);
  EXPECT_EQ(patient->adaptive_repartitions(), 1);
}

TEST(AdaptiveRunnerTest, BuilderValidatesPolicy) {
  WordLmModel model(DriftingLm(47, 0));
  auto bad = [&](AdaptivePartitioningPolicy policy) {
    return RunnerBuilder(model.graph(), model.loss())
        .WithResources("m0:0,1;m1:0,1")
        .WithAdaptivePartitioning(policy)
        .Build();
  };
  AdaptivePartitioningPolicy policy;
  policy.ewma_decay = 0.0;
  EXPECT_FALSE(bad(policy).ok());
  policy = {};
  policy.check_interval = 0;
  EXPECT_FALSE(bad(policy).ok());
  policy = {};
  policy.hysteresis = -0.1;
  EXPECT_FALSE(bad(policy).ok());
  EXPECT_TRUE(bad(AdaptivePartitioningPolicy{}).ok());
}

}  // namespace
}  // namespace parallax
