#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/ar/ar_numeric.h"
#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/core/partition_plan.h"
#include "src/models/trainable.h"
#include "src/ps/ps_numeric.h"
#include "src/sync/int8_ps.h"
#include "src/sync/topk_ps.h"
#include "src/tensor/tensor_ops.h"
#include "tests/drift_scenario.h"
#include "tests/naive_reference.h"

namespace parallax {
namespace {

// The master correctness property (DESIGN.md): every synchronization architecture is a
// different *mechanism* for the same synchronous-SGD math. Training any model with the
// PS engine, the AR engine, or the full Parallax runner must track the single-device
// gradient-accumulation reference trajectory.
constexpr float kLr = 0.3f;
constexpr int kRanks = 4;
constexpr int kSteps = 6;

// Reference: accumulate shard gradients on one device (mean), apply plain SGD.
void ReferenceApply(const Graph& graph, const std::vector<StepResult>& per_rank,
                    VariableStore& store) {
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    int key = static_cast<int>(v);
    if (per_rank.front().grads.find(key) == per_rank.front().grads.end()) {
      continue;
    }
    Tensor mean = Tensor::Zeros(graph.variables()[v].shape);
    for (const StepResult& r : per_rank) {
      AddInPlace(mean, r.grads.at(key).ToDense(graph.variables()[v].shape));
    }
    ScaleInPlace(mean, 1.0f / static_cast<float>(per_rank.size()));
    AxpyInPlace(store.GetMutable(key), -kLr, mean);
  }
}

template <typename Model>
void ExpectTrajectoriesMatch(Model& model, float tolerance) {
  const Graph& graph = *model.graph();
  Executor executor(model.graph());

  // Engines under test.
  PsNumericConfig ps_config;
  ps_config.local_aggregation = true;
  ps_config.ranks_per_machine = 2;
  PsNumericEngine ps(model.graph(), ps_config);
  ArNumericEngine ar(model.graph());
  ParallaxConfig px_config;
  px_config.learning_rate = kLr;
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 2),
                     px_config);
  VariableStore reference = VariableStore::InitFrom(graph);

  Rng rng(77);
  for (int step = 0; step < kSteps; ++step) {
    // Identical shards for every engine: same data, same step.
    std::vector<FeedMap> shards = model.TrainShards(kRanks, rng);
    std::vector<StepResult> grads;
    for (int r = 0; r < kRanks; ++r) {
      grads.push_back(executor.RunStep(reference, shards[static_cast<size_t>(r)],
                                       model.loss()));
    }
    ReferenceApply(graph, grads, reference);
    ps.ApplyStep(grads, kLr);
    ar.ApplyStep(grads, kLr);
    runner.Step(shards);

    VariableStore ps_values = ps.CurrentValues();
    VariableStore px_values = runner.WorkerView();
    for (size_t v = 0; v < graph.variables().size(); ++v) {
      int key = static_cast<int>(v);
      const std::string& name = graph.variables()[v].name;
      EXPECT_TRUE(AllClose(ps_values.Get(key), reference.Get(key), tolerance))
          << "PS diverged on " << name << " at step " << step;
      EXPECT_TRUE(AllClose(ar.View().Get(key), reference.Get(key), tolerance))
          << "AR diverged on " << name << " at step " << step;
      EXPECT_TRUE(AllClose(px_values.Get(key), reference.Get(key), tolerance))
          << "Parallax diverged on " << name << " at step " << step;
    }
  }
}

TEST(EngineEquivalenceTest, WordLmAllEnginesTrackReference) {
  WordLmModel model({.vocab_size = 60, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 701});
  ExpectTrajectoriesMatch(model, 5e-4f);
}

TEST(EngineEquivalenceTest, NmtSurrogateAllEnginesTrackReference) {
  NmtSurrogateModel model({.vocab_size = 50, .embedding_dim = 6, .hidden_dim = 10,
                           .batch_per_rank = 12, .seed = 702});
  ExpectTrajectoriesMatch(model, 5e-4f);
}

TEST(EngineEquivalenceTest, MlpClassifierAllEnginesTrackReference) {
  MlpClassifierModel model({.feature_dims = 10, .num_classes = 5, .hidden_dim = 12,
                            .batch_per_rank = 12, .seed = 703});
  ExpectTrajectoriesMatch(model, 5e-4f);
}

// ---- Bit-identity against the pre-SyncEngine runner ---------------------------------
//
// The redesigned runner routes every step through SyncEngine::ApplyStep and composes
// worker views from engine View()s, which hand out each engine's one copy of a
// variable; the seed runner hardwired a PS + AR engine pair, kept one AR replica per
// rank, and overlaid PS pulls. This reference replays the seed's exact step semantics
// over any ps/ar managed split, so both the default hybrid assignment and
// builder-forced mixed assignments can be compared bit-for-bit. It keeps the seed's
// layout itself: every rank reads its own AR replica, and every replica applies the
// same aggregated gradient. Its server side is the naive per-variable oracle
// (NaivePsVariableStep in tests/naive_reference.h: sum per machine, sum across
// machines, scale, split, scatter), so every comparison pins the runner's fused sparse
// pass to the seed's per-variable pipeline. Like the seed, it splits every
// partitioner-scoped PS variable into one uniform count.
class LegacyRunnerReference {
 public:
  LegacyRunnerReference(const Graph* graph, NodeId loss, int num_ranks,
                        int ranks_per_machine, int sparse_partitions,
                        std::vector<int> ps_vars, std::vector<int> ar_vars, float lr)
      : loss_(loss),
        executor_(graph),
        ps_vars_(std::move(ps_vars)),
        ar_vars_(std::move(ar_vars)),
        ranks_per_machine_(ranks_per_machine),
        lr_(lr),
        ps_values_(VariableStore::InitFrom(*graph)) {
    for (const VariableDef& def : graph->variables()) {
      partitions_.push_back(def.partitioner_scope
                                ? RowCappedPartitions(sparse_partitions, def.shape.dim(0))
                                : 1);
    }
    for (int r = 0; r < num_ranks; ++r) {
      ar_rank_values_.push_back(VariableStore::InitFrom(*graph));
    }
  }

  float Step(const std::vector<FeedMap>& shards) {
    std::vector<StepResult> per_rank;
    float loss_sum = 0.0f;
    for (size_t r = 0; r < shards.size(); ++r) {
      VariableStore view = ar_rank_values_[r].Clone();
      for (int v : ps_vars_) {
        view.Set(v, ps_values_.Get(v).Clone());
      }
      StepResult result = executor_.RunStep(view, shards[r], loss_);
      loss_sum += result.loss;
      per_rank.push_back(std::move(result));
    }
    for (int v : ps_vars_) {
      if (per_rank.front().grads.count(v) > 0) {
        NaivePsVariableStep(ps_values_.GetMutable(v), partitions_[static_cast<size_t>(v)], v,
                            per_rank, ranks_per_machine_, AggregationMethod::kAverage,
                            AggregationMethod::kAverage, lr_);
      }
    }
    // AllReduce (dense) or AllGatherv (sparse) with averaging, then the same update
    // on every rank's replica.
    for (int v : ar_vars_) {
      if (per_rank.front().grads.count(v) == 0) {
        continue;
      }
      GradValue grad;
      if (per_rank.front().grads.at(v).is_sparse()) {
        std::vector<IndexedSlices> contributions;
        for (const StepResult& result : per_rank) {
          contributions.push_back(result.grads.at(v).sparse());
        }
        grad = GradValue::MakeSparse(
            AllGathervAggregate(contributions, AggregationMethod::kAverage));
      } else {
        std::vector<Tensor> contributions;
        for (const StepResult& result : per_rank) {
          contributions.push_back(result.grads.at(v).dense());
        }
        Tensor sum = NaiveAllReduceSum(contributions);
        ScaleInPlace(sum, 1.0f / static_cast<float>(contributions.size()));
        grad = GradValue::MakeDense(std::move(sum));
      }
      for (VariableStore& replica : ar_rank_values_) {
        replica.ApplySgd(v, grad, lr_);
      }
    }
    return loss_sum / static_cast<float>(shards.size());
  }

  VariableStore WorkerView() const {
    VariableStore view = ar_rank_values_.front().Clone();
    for (int v : ps_vars_) {
      view.Set(v, ps_values_.Get(v).Clone());
    }
    return view;
  }

 private:
  NodeId loss_;
  Executor executor_;
  std::vector<int> ps_vars_;
  std::vector<int> ar_vars_;
  std::vector<int> partitions_;  // per variable, as the seed's servers split it
  int ranks_per_machine_;
  float lr_;
  VariableStore ps_values_;  // the servers' values of the ps_vars_ entries
  std::vector<VariableStore> ar_rank_values_;  // each rank's AR replica
};

// Pre-generates the shards so the runner under test and the legacy reference consume
// identical feeds, then checks bit-identical losses and worker views step by step.
void ExpectBitIdenticalToLegacy(GraphRunner& runner, WordLmModel& model, int num_ranks,
                                int ranks_per_machine, float lr, int steps) {
  Rng rng(4242);
  std::vector<std::vector<FeedMap>> shards;
  shards.reserve(static_cast<size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    shards.push_back(model.TrainShards(num_ranks, rng));
  }

  // First step initializes the runner (analysis + search + plan); the legacy reference
  // is then built from the resulting plan and replays every step from scratch.
  float first_loss = runner.Step(shards[0]);
  const SyncPlan& plan = runner.plan();
  std::vector<int> ps_vars;
  std::vector<int> ar_vars;
  for (size_t v = 0; v < plan.engines.size(); ++v) {
    (plan.engines[v] == "ps" ? ps_vars : ar_vars).push_back(static_cast<int>(v));
  }
  LegacyRunnerReference legacy(model.graph(), model.loss(), num_ranks, ranks_per_machine,
                               runner.partition_plan().MaxPartitions(), ps_vars, ar_vars,
                               lr);

  for (int s = 0; s < steps; ++s) {
    float loss_new = s == 0 ? first_loss : runner.Step(shards[static_cast<size_t>(s)]);
    float loss_legacy = legacy.Step(shards[static_cast<size_t>(s)]);
    EXPECT_EQ(loss_new, loss_legacy) << "loss diverged at step " << s;
    VariableStore view_new = runner.WorkerView();
    VariableStore view_legacy = legacy.WorkerView();
    for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
      EXPECT_TRUE(AllClose(view_new.Get(static_cast<int>(v)),
                           view_legacy.Get(static_cast<int>(v)), 0.0f))
          << model.graph()->variables()[v].name << " diverged at step " << s;
    }
  }
}

TEST(EngineEquivalenceTest, GetRunnerShimBitIdenticalToLegacyRunner) {
  WordLmModel model({.vocab_size = 90, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 710});
  ParallaxConfig config;
  config.learning_rate = kLr;
  auto runner = GetRunner(model.graph(), model.loss(), "m0:0,1;m1:0,1", config);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  ExpectBitIdenticalToLegacy(*runner.value(), model, 4, 2, kLr, kSteps);
}

TEST(EngineEquivalenceTest, MixedEngineAssignmentBitIdenticalToLegacyRunner) {
  // Force a routing the hybrid rule would never pick — a sparse variable through AR
  // (AllGatherv) and a dense one through PS — and check the redesigned runner still
  // matches the seed engines managing the same split, bit for bit.
  WordLmModel model({.vocab_size = 90, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 711});
  auto runner = RunnerBuilder(model.graph(), model.loss())
                    .WithResources("m0:0,1;m1:0,1")
                    .WithEngine("softmax_emb", "ar")
                    .WithEngine("w1", "ps")
                    .WithLearningRate(kLr)
                    .WithPartitionPlan(PartitionPlan::Uniform(5))  // split PS shards
                    .Build();
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  ExpectBitIdenticalToLegacy(*runner.value(), model, 4, 2, kLr, kSteps);

  // The overrides must be reflected in the plan and in the timing-plane methods.
  const SyncPlan& plan = runner.value()->plan();
  for (size_t v = 0; v < plan.variables.size(); ++v) {
    if (plan.variables[v].spec.name == "softmax_emb") {
      EXPECT_EQ(plan.engines[v], "ar");
      EXPECT_EQ(plan.variables[v].method, SyncMethod::kArAllGatherv);
    }
    if (plan.variables[v].spec.name == "w1") {
      EXPECT_EQ(plan.engines[v], "ps");
      EXPECT_EQ(plan.variables[v].method, SyncMethod::kPs);
    }
  }
}

TEST(EngineEquivalenceTest, FusedSparseAggregationBitIdenticalToPerVariable) {
  // The PS engine sends every step's sparse variables through one fused workspace
  // pass; the seed aggregated them one variable at a time. On four one-GPU machines
  // there is no local-aggregation level, so the fused global pass sums the raw
  // per-rank slices — the case the two-GPU-machine comparisons above never reach.
  // Both sparse tables stay on the PS engine and must match the per-variable oracle
  // bit for bit.
  WordLmModel model({.vocab_size = 90, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 712});
  auto runner = RunnerBuilder(model.graph(), model.loss())
                    .WithResources("m0:0;m1:0;m2:0;m3:0")
                    .WithLearningRate(kLr)
                    .WithSearch({})
                    .Build();
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  ExpectBitIdenticalToLegacy(*runner.value(), model, 4, 1, kLr, kSteps);
  int ps_sparse = 0;
  const SyncPlan& plan = runner.value()->plan();
  for (size_t v = 0; v < plan.variables.size(); ++v) {
    ps_sparse += plan.variables[v].spec.is_sparse && plan.engines[v] == "ps" ? 1 : 0;
  }
  EXPECT_EQ(ps_sparse, 2);
}

TEST(EngineEquivalenceTest, SparsityMonitoringNeverTouchesTheNumerics) {
  // The adaptive loop is layout and measurement only: a run with the monitor attached
  // — including one that actually fires a mid-training Repartition — must produce the
  // exact losses and variable bits of a monitor-free run on the same feeds. (This also
  // pins the converse: a monitor-disabled runner IS the pre-monitor runner.)
  // The canonical drift scenario (tests/drift_scenario.h): a wide embedding,
  // accumulation-dominated server costs, and a vocabulary that opens up at step 6, so
  // the monitored run's re-search genuinely moves P mid-training. Returns (losses,
  // repartitions, final worker view snapshot); the view is a deep clone, safe after
  // the model and runner go out of scope.
  auto train = [](bool monitored, std::vector<float>* losses, int* repartitions) {
    WordLmModel model(DriftingLm(/*seed=*/713, /*drift_step=*/6));
    RunnerBuilder builder(model.graph(), model.loss());
    builder.WithResources("m0:0,1;m1:0,1")
        .WithLearningRate(kLr)
        .WithSyncCosts(AccumulationDominatedCosts())
        .WithCompute(2e-3, 4)
        .WithSearch({});
    if (monitored) {
      AdaptivePartitioningPolicy policy;
      policy.ewma_decay = 0.5;
      policy.drift_threshold = 0.1;
      policy.hysteresis = 0.0;  // adopt any improvement: maximize layout churn
      policy.warmup_steps = 2;
      policy.check_interval = 2;
      policy.cooldown_steps = 2;
      builder.WithAdaptivePartitioning(policy);
    }
    auto runner = builder.Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    Rng rng(4444);
    for (int step = 0; step < 16; ++step) {
      losses->push_back(runner.value()->Step(model.TrainShards(4, rng, step)));
    }
    *repartitions = runner.value()->adaptive_repartitions();
    return runner.value()->WorkerView();
  };
  std::vector<float> monitored_losses;
  std::vector<float> plain_losses;
  int monitored_repartitions = 0;
  int plain_repartitions = 0;
  VariableStore monitored_view = train(true, &monitored_losses, &monitored_repartitions);
  VariableStore plain_view = train(false, &plain_losses, &plain_repartitions);
  // The invariant is only meaningful if the monitored run actually crossed a
  // mid-training Repartition — assert it did.
  EXPECT_GE(monitored_repartitions, 1);
  EXPECT_EQ(plain_repartitions, 0);
  EXPECT_EQ(monitored_losses, plain_losses);
  for (size_t v = 0; v < monitored_view.size(); ++v) {
    EXPECT_TRUE(AllClose(monitored_view.Get(static_cast<int>(v)),
                         plain_view.Get(static_cast<int>(v)), 0.0f))
        << "variable " << v << " diverged under monitoring";
  }
}

TEST(EngineEquivalenceTest, HeterogeneousPlanBitIdenticalToUniformRunRepartitionedOntoIt) {
  // A heterogeneous PartitionPlan is layout, never math: a run built on the plan from
  // step 0 must be bit-identical — losses and variable bits — to a run that starts
  // uniform and swaps to the same per-variable counts via Repartition(plan)
  // mid-training.
  WordLmModel model({.vocab_size = 90, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 714});
  PartitionPlan plan;
  plan.Set("embedding", 3);
  plan.Set("softmax_emb", 7);

  auto build = [&](bool planned) {
    RunnerBuilder builder(model.graph(), model.loss());
    builder.WithResources("m0:0,1;m1:0,1").WithLearningRate(kLr);
    if (planned) {
      builder.WithPartitionPlan(plan);
    } else {
      builder.WithPartitionPlan(PartitionPlan::Uniform(1));
    }
    auto runner = builder.Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    return std::move(runner.value());
  };
  std::unique_ptr<GraphRunner> planned = build(true);
  std::unique_ptr<GraphRunner> uniform = build(false);

  Rng rng(714);
  std::vector<std::vector<FeedMap>> shards;
  for (int s = 0; s < kSteps; ++s) {
    shards.push_back(model.TrainShards(kRanks, rng));
  }

  for (int s = 0; s < kSteps; ++s) {
    float planned_loss = planned->Step(shards[static_cast<size_t>(s)]);
    float uniform_loss = uniform->Step(shards[static_cast<size_t>(s)]);
    EXPECT_EQ(planned_loss, uniform_loss) << "loss diverged at step " << s;
    if (s == 0) {
      // Mid-training swap onto the heterogeneous layout (values preserved).
      uniform->Repartition(plan);
      EXPECT_EQ(uniform->partition_plan(), plan);
    }
    VariableStore planned_view = planned->WorkerView();
    VariableStore uniform_view = uniform->WorkerView();
    for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
      EXPECT_TRUE(AllClose(planned_view.Get(static_cast<int>(v)),
                           uniform_view.Get(static_cast<int>(v)), 0.0f))
          << model.graph()->variables()[v].name << " diverged at step " << s;
    }
  }

  // Both runners now hold the same per-variable layout, and the plan's counts reached
  // the SyncPlan entries (row caps would apply, but 90 rows > 7 pieces).
  for (const GraphRunner* runner : {planned.get(), uniform.get()}) {
    EXPECT_EQ(runner->partition_plan(), plan);
    for (const VariableSync& sync : runner->assignment()) {
      if (sync.spec.name == "embedding") {
        EXPECT_EQ(sync.partitions, 3);
      }
      if (sync.spec.name == "softmax_emb") {
        EXPECT_EQ(sync.partitions, 7);
      }
    }
  }
}

TEST(EngineEquivalenceTest, IdentityCompressionEnginesBitIdenticalToPs) {
  // The compression engines' escape hatch is EXACT: a top-k engine at ratio >= 1.0
  // and an int8 engine in identity mode must delegate untouched — bit-identical
  // losses and variable bits against "ps", including float summation order. (This is
  // why the pass-through hands the ORIGINAL per-rank results to the inner engine
  // instead of round-tripping through the compression buffers.) Registering the two
  // extra engines must also leave the built-in routings untouched — the runs below
  // build after the registrations.
  if (!SyncEngineRegistry::Global().Contains("topk_identity")) {
    ASSERT_TRUE(RegisterTopKPsEngine("topk_identity", {.ratio = 1.0}).ok());
  }
  if (!SyncEngineRegistry::Global().Contains("int8_identity")) {
    ASSERT_TRUE(RegisterInt8PsEngine("int8_identity", {.identity = true}).ok());
  }

  // Every PS-family engine translates the SyncPlan through the one PsNumericConfigFor,
  // so the runs cover two layouts: the searched uniform one, and a per-variable plan
  // with a placed table, swapped at step 2 for a uniform plan that places the other
  // table instead.
  PartitionPlan placed;
  placed.Set("embedding", 3);
  placed.Set("softmax_emb", 7);
  placed.SetPlacement("embedding", {1, 0, 1});
  PartitionPlan swapped = PartitionPlan::Uniform(2);
  swapped.SetPlacement("softmax_emb", {1, 1});
  auto placement_of = [](const GraphRunner& runner, const std::string& name) {
    for (const VariableSync& sync : runner.assignment()) {
      if (sync.spec.name == name) {
        return sync.placement;
      }
    }
    return std::vector<int>{-1};  // no such variable
  };

  auto train = [&](const std::string& engine, bool planned, VariableStore* view) {
    WordLmModel model({.vocab_size = 90, .embedding_dim = 6, .hidden_dim = 10,
                       .batch_per_rank = 12, .seed = 715});
    RunnerBuilder builder(model.graph(), model.loss());
    builder.WithResources("m0:0,1;m1:0,1")
        .WithLearningRate(kLr)
        .WithSearch({})
        .WithEngine("*", engine);
    if (planned) {
      builder.WithPartitionPlan(placed);
    }
    auto runner = builder.Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    GraphRunner& r = *runner.value();
    Rng rng(715);
    std::vector<float> losses;
    for (int s = 0; s < kSteps; ++s) {
      if (planned && s == 2) {
        EXPECT_EQ(placement_of(r, "embedding"), (std::vector<int>{1, 0, 1})) << engine;
        EXPECT_TRUE(placement_of(r, "softmax_emb").empty()) << engine;
        r.Repartition(swapped);
        EXPECT_EQ(r.partition_plan(), swapped) << engine;
        EXPECT_TRUE(placement_of(r, "embedding").empty()) << engine;
        EXPECT_EQ(placement_of(r, "softmax_emb"), (std::vector<int>{1, 1})) << engine;
      }
      losses.push_back(r.Step(model.TrainShards(kRanks, rng)));
    }
    *view = r.WorkerView();
    return losses;
  };

  for (bool planned : {false, true}) {
    const char* layout = planned ? "placed plan" : "searched layout";
    VariableStore ps_view;
    std::vector<float> ps_losses = train("ps", planned, &ps_view);
    for (const char* engine : {"topk_identity", "int8_identity", "async_ps"}) {
      // async_ps rides along as the registration-isolation control: its trajectory was
      // never bit-equal to "ps", but it must still build and train after the new
      // registrations (registering engines changes nothing for anyone else).
      VariableStore view;
      std::vector<float> losses = train(engine, planned, &view);
      if (std::string(engine) == "async_ps") {
        EXPECT_EQ(losses.size(), ps_losses.size()) << layout;
        continue;
      }
      EXPECT_EQ(losses, ps_losses) << engine << " on the " << layout;
      for (size_t v = 0; v < view.size(); ++v) {
        EXPECT_TRUE(AllClose(view.Get(static_cast<int>(v)),
                             ps_view.Get(static_cast<int>(v)), 0.0f))
            << engine << " variable " << v << " on the " << layout;
      }
    }
  }
}

TEST(EngineEquivalenceTest, DistributedBatchEqualsBigBatchForDenseModel) {
  // For a plain mean-loss model, K shards of size b with average aggregation equal one
  // device running the concatenated K*b batch — the textbook data-parallel identity.
  MlpClassifierModel model({.feature_dims = 8, .num_classes = 4, .hidden_dim = 10,
                            .batch_per_rank = 16, .seed = 704});
  const Graph& graph = *model.graph();
  Executor executor(model.graph());
  VariableStore distributed = VariableStore::InitFrom(graph);
  VariableStore big_batch = VariableStore::InitFrom(graph);

  Rng rng(78);
  std::vector<FeedMap> shards = model.TrainShards(kRanks, rng);
  // Concatenate the shards into one big feed.
  FeedMap concat;
  for (const auto& [node, tensor] : shards[0]) {
    std::vector<Tensor> parts;
    for (int r = 0; r < kRanks; ++r) {
      parts.push_back(shards[static_cast<size_t>(r)].at(node));
    }
    if (tensor.is_float()) {
      concat[node] = ConcatRows(parts);
    } else {
      std::vector<int64_t> values;
      for (const Tensor& part : parts) {
        values.insert(values.end(), part.ints().begin(), part.ints().end());
      }
      concat[node] = Tensor::FromIndices(
          values, tensor.shape().WithDim0(static_cast<int64_t>(values.size())));
    }
  }

  // Distributed: mean of shard grads. Big batch: one backward pass.
  std::vector<StepResult> grads;
  for (int r = 0; r < kRanks; ++r) {
    grads.push_back(executor.RunStep(distributed, shards[static_cast<size_t>(r)],
                                     model.loss()));
  }
  ReferenceApply(graph, grads, distributed);
  StepResult big = executor.RunStep(big_batch, concat, model.loss());
  for (const auto& [v, grad] : big.grads) {
    big_batch.ApplySgd(v, grad, kLr);
  }
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    EXPECT_TRUE(AllClose(distributed.Get(static_cast<int>(v)),
                         big_batch.Get(static_cast<int>(v)), 1e-5f))
        << graph.variables()[v].name;
  }
}

TEST(EngineEquivalenceTest, CheckpointingNeverTouchesTheNumerics) {
  // The elasticity counterpart of the monitoring invariant above: a monitored,
  // periodically-checkpointed, never-rescaled run must produce the exact losses and
  // variable bits of a plain run on the same feeds. Checkpoint writes charge only the
  // simulated clock — so the checkpointed clock runs AHEAD of the plain one while the
  // learning curve stays bit-identical.
  auto train = [](bool checkpointed, std::vector<float>* losses, double* clock) {
    WordLmModel model(DriftingLm(/*seed=*/719, /*drift_step=*/6));
    RunnerBuilder builder(model.graph(), model.loss());
    builder.WithResources("m0:0,1;m1:0,1")
        .WithLearningRate(kLr)
        .WithSyncCosts(AccumulationDominatedCosts())
        .WithCompute(2e-3, 4)
        .WithSearch({});
    AdaptivePartitioningPolicy policy;
    policy.warmup_steps = 2;
    policy.check_interval = 2;
    policy.cooldown_steps = 2;
    builder.WithAdaptivePartitioning(policy);
    std::string path;
    if (checkpointed) {
      path = std::string(::testing::TempDir()) + "/equiv_ckpt.px";
      builder.WithCheckpoint(path, /*interval_steps=*/3);
    }
    auto runner = builder.Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    Rng rng(5555);
    for (int step = 0; step < 12; ++step) {
      losses->push_back(runner.value()->Step(model.TrainShards(4, rng, step)));
    }
    if (checkpointed) {
      EXPECT_EQ(runner.value()->checkpoints_written(), 4);
      std::remove(path.c_str());
    }
    *clock = runner.value()->simulated_seconds();
    return runner.value()->WorkerView();
  };
  std::vector<float> checkpointed_losses;
  std::vector<float> plain_losses;
  double checkpointed_clock = 0.0;
  double plain_clock = 0.0;
  VariableStore checkpointed_view =
      train(true, &checkpointed_losses, &checkpointed_clock);
  VariableStore plain_view = train(false, &plain_losses, &plain_clock);
  EXPECT_EQ(checkpointed_losses, plain_losses);
  EXPECT_GT(checkpointed_clock, plain_clock);
  for (size_t v = 0; v < checkpointed_view.size(); ++v) {
    EXPECT_TRUE(AllClose(checkpointed_view.Get(static_cast<int>(v)),
                         plain_view.Get(static_cast<int>(v)), 0.0f))
        << "variable " << v << " diverged under checkpointing";
  }
}

}  // namespace
}  // namespace parallax
