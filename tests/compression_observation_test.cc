// Post-compression sparsity observation (satellite of docs/compression.md): an
// observer attached to a compression engine must see the nnz that actually rides the
// wire — the selected rows — not the raw backward output, and the adaptive loop must
// compose with compression: plan alphas reflect the compressed volume, the re-search
// adopts a plan priced at it, and the ratio-inversion recovers the raw alpha for the
// engine-independent VariableSpec.
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/models/trainable.h"
#include "src/sync/topk_ps.h"
#include "tests/drift_scenario.h"

namespace parallax {
namespace {

constexpr double kRatio = 0.25;

struct RecordingObserver : SparseAccessObserver {
  // Every aggregated-gradient observation and every per-rank tap, per variable.
  std::unordered_map<int, std::vector<int64_t>> step_rows;
  std::unordered_map<int, std::vector<int64_t>> rank_rows;
  void ObserveSparseStep(int variable, int64_t unique_rows, int contributions) override {
    EXPECT_GE(contributions, 1);
    step_rows[variable].push_back(unique_rows);
  }
  void ObserveRankAccess(int variable, int64_t unique_rows) override {
    rank_rows[variable].push_back(unique_rows);
  }
};

TEST(CompressionObservationTest, ObserverSeesSelectedRowsNotRawNnz) {
  // Every rank gets the SAME feed, so each rank selects the same k rows and every
  // aggregated observation — whatever the engine's grouping — must equal k exactly,
  // where k = ceil(ratio * incoming unique rows). The raw nnz never appears.
  WordLmModel model({.vocab_size = 100, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 24, .seed = 870});
  const int num_ranks = 4;
  SyncPlan plan;
  plan.variables.resize(model.graph()->variables().size());
  plan.engines.assign(model.graph()->variables().size(), "topk_ps");
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    plan.variables[v].spec.name = model.graph()->variables()[v].name;
  }
  plan.num_ranks = num_ranks;
  plan.ranks_per_machine = 2;

  TopKPsEngine engine(model.graph(), {.ratio = kRatio, .error_feedback = true});
  RecordingObserver observer;
  engine.set_observer(&observer);
  engine.Prepare(plan);

  Executor executor(model.graph());
  Rng rng(871);
  for (int step = 0; step < 3; ++step) {
    VariableStore view = engine.View();
    FeedMap feed = model.TrainShards(1, rng)[0];
    std::vector<StepResult> per_rank;
    for (int r = 0; r < num_ranks; ++r) {
      per_rank.push_back(executor.RunStep(view, feed, model.loss()));
    }

    // Expected per-variable k from the raw gradient the engine is about to compress.
    std::unordered_map<int, int64_t> expected_k;
    std::unordered_map<int, int64_t> raw_rows;
    int64_t total_k = 0;
    for (const auto& [key, grad] : per_rank.front().grads) {
      if (!grad.is_sparse()) {
        continue;
      }
      const int64_t raw = grad.sparse().unique_rows();
      const int64_t k = std::max<int64_t>(
          1, static_cast<int64_t>(std::ceil(kRatio * static_cast<double>(raw))));
      expected_k[key] = k;
      raw_rows[key] = raw;
      total_k += k * num_ranks;
      ASSERT_LT(k, raw) << "batch too small to demonstrate compression, key " << key;
    }
    ASSERT_FALSE(expected_k.empty());

    observer.step_rows.clear();
    observer.rank_rows.clear();
    engine.ApplyStep(per_rank, 0.3f);

    EXPECT_EQ(engine.last_selected_rows(), total_k) << "step " << step;
    for (const auto& [key, k] : expected_k) {
      ASSERT_FALSE(observer.step_rows[key].empty()) << "key " << key;
      for (int64_t observed : observer.step_rows[key]) {
        EXPECT_EQ(observed, k) << "aggregated observation saw raw nnz (" << raw_rows[key]
                               << ") instead of the selected " << k;
      }
      for (int64_t observed : observer.rank_rows[key]) {
        EXPECT_EQ(observed, k) << "rank tap saw raw nnz for key " << key;
      }
    }
  }
}

// The adaptive loop under compression, against the identical uncompressed run: the
// monitored plan alpha must track the COMPRESSED access ratio (~ ratio * raw), the
// drift re-search must still fire and adopt after the vocabulary opens up, and the
// ratio-inversion must restore the raw alpha into the adopted plan's VariableSpec.
struct AdaptiveRun {
  double plan_alpha = 0.0;    // monitor's plan estimator for the embedding
  double spec_alpha = 0.0;    // the embedding's spec.alpha in the plan in force
  int repartitions = 0;
  int64_t first_adopted_step = -1;
};

AdaptiveRun RunAdaptive(const std::string& engine, uint64_t seed, int64_t drift_step) {
  WordLmModel model(DriftingLm(seed, drift_step));
  AdaptivePartitioningPolicy policy;
  policy.ewma_decay = 0.5;
  policy.drift_threshold = 0.1;
  policy.hysteresis = 0.0;
  policy.warmup_steps = 2;
  policy.check_interval = 2;
  policy.cooldown_steps = 2;
  auto runner = RunnerBuilder(model.graph(), model.loss())
                    .WithResources("m0:0,1;m1:0,1")
                    .WithLearningRate(0.3f)
                    .WithSyncCosts(AccumulationDominatedCosts())
                    .WithCompute(2e-3, 4)
                    .WithSearch({})
                    .WithAdaptivePartitioning(policy)
                    .WithEngine("*", engine)
                    .Build();
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  AdaptiveRun out;
  if (!runner.ok()) {
    return out;
  }
  Rng rng(seed);
  for (int step = 0; step < 16; ++step) {
    runner.value()->Step(model.TrainShards(4, rng, step));
  }
  int embedding = -1;
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    if (model.graph()->variables()[v].name == "embedding") {
      embedding = static_cast<int>(v);
    }
  }
  EXPECT_GE(embedding, 0);
  const SparsityMonitor* monitor = runner.value()->sparsity_monitor();
  EXPECT_NE(monitor, nullptr);
  out.plan_alpha = monitor->plan_alpha(embedding);
  out.repartitions = runner.value()->adaptive_repartitions();
  for (const AdaptationVerdict& verdict : monitor->trail()) {
    if (verdict.adopted && out.first_adopted_step < 0) {
      out.first_adopted_step = verdict.step;
    }
  }
  for (const VariableSync& sync : runner.value()->assignment()) {
    if (sync.spec.name == "embedding") {
      out.spec_alpha = sync.spec.alpha;
    }
  }
  return out;
}

TEST(CompressionObservationTest, AdaptiveLoopPricesTheCompressedVolume) {
  const std::string engine = "topk_obs_q4";
  if (!SyncEngineRegistry::Global().Contains(engine)) {
    Status status =
        RegisterTopKPsEngine(engine, {.ratio = kRatio, .error_feedback = true});
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  AdaptiveRun compressed = RunAdaptive(engine, /*seed=*/872, /*drift_step=*/6);
  AdaptiveRun raw = RunAdaptive("ps", /*seed=*/872, /*drift_step=*/6);

  // Both monitored runs crossed a mid-training re-search and adopted, after the drift.
  EXPECT_GE(compressed.repartitions, 1);
  EXPECT_GE(raw.repartitions, 1);
  EXPECT_GT(compressed.first_adopted_step, 6);

  // The monitor measured the wire: the compressed run's plan alpha is the raw run's
  // scaled by ~ratio (k = ceil(ratio * nnz) per rank, same data stream).
  ASSERT_GT(raw.plan_alpha, 0.0);
  const double measured_ratio = compressed.plan_alpha / raw.plan_alpha;
  EXPECT_GT(measured_ratio, kRatio * 0.6);
  EXPECT_LT(measured_ratio, kRatio * 1.4);

  // ...and the adopted plan's spec carries the INVERTED alpha — the engine-independent
  // raw access ratio — so the simulator's PushAlpha prices the compressed volume
  // exactly once (spec.alpha * ratio), not twice.
  ASSERT_GT(raw.spec_alpha, 0.0);
  EXPECT_GT(compressed.spec_alpha, raw.spec_alpha * 0.5);
  EXPECT_LT(compressed.spec_alpha, raw.spec_alpha * 2.0);
}

}  // namespace
}  // namespace parallax
