#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/models/trainable.h"
#include "src/ps/ps_numeric.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

constexpr float kLr = 0.2f;

// Reference semantics: single-GPU gradient accumulation over the shards (mean), applied
// to a plain store — what the paper's "correct variable updates as done in a single-GPU
// code" means for synchronous training.
VariableStore ReferenceStep(const Graph& graph, const std::vector<StepResult>& per_rank,
                            VariableStore store, float lr) {
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    int key = static_cast<int>(v);
    if (per_rank.front().grads.find(key) == per_rank.front().grads.end()) {
      continue;
    }
    Tensor sum = Tensor::Zeros(graph.variables()[v].shape);
    for (const StepResult& r : per_rank) {
      AddInPlace(sum, r.grads.at(key).ToDense(graph.variables()[v].shape));
    }
    ScaleInPlace(sum, 1.0f / static_cast<float>(per_rank.size()));
    AxpyInPlace(store.GetMutable(key), -lr, sum);
  }
  return store;
}

std::vector<StepResult> ComputeGrads(WordLmModel& model, const VariableStore& values,
                                     int ranks, Rng& rng) {
  Executor executor(model.graph());
  std::vector<FeedMap> shards = model.TrainShards(ranks, rng);
  std::vector<StepResult> results;
  for (int r = 0; r < ranks; ++r) {
    results.push_back(executor.RunStep(values, shards[static_cast<size_t>(r)], model.loss()));
  }
  return results;
}

class PsConfigParamTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PsConfigParamTest, MatchesSingleDeviceReference) {
  auto [partitions, local_agg] = GetParam();
  WordLmModel model({.vocab_size = 40, .embedding_dim = 6, .hidden_dim = 8,
                     .batch_per_rank = 12, .seed = 101});
  PsNumericConfig config;
  config.variable_partitions.assign(model.graph()->variables().size(), partitions);
  config.local_aggregation = local_agg;
  config.ranks_per_machine = 2;
  PsNumericEngine engine(model.graph(), config);

  VariableStore reference = VariableStore::InitFrom(*model.graph());
  Rng rng(7);
  for (int step = 0; step < 5; ++step) {
    // Workers read the PS values (engine and reference must agree at every step).
    std::vector<StepResult> grads = ComputeGrads(model, engine.CurrentValues(), 4, rng);
    engine.ApplyStep(grads, kLr);
    reference = ReferenceStep(*model.graph(), grads, std::move(reference), kLr);
    VariableStore actual = engine.CurrentValues();
    for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
      EXPECT_TRUE(AllClose(actual.Get(static_cast<int>(v)),
                           reference.Get(static_cast<int>(v)), 2e-4f))
          << "variable " << model.graph()->variables()[v].name << " at step " << step
          << " with P=" << partitions << " local_agg=" << local_agg;
    }
  }
}

// P = 64 exceeds the 40 rows of the model's partitioner-scoped tables: the request is
// row-capped to one row per piece.
INSTANTIATE_TEST_SUITE_P(Configs, PsConfigParamTest,
                         ::testing::Combine(::testing::Values(1, 4, 8, 64),
                                            ::testing::Bool()));

TEST(PsVariableTest, MaterializeEqualsInitial) {
  Rng rng(41);
  Tensor initial = RandomNormal(TensorShape({11, 3}), rng);
  PsVariable var(initial, 4);
  EXPECT_TRUE(AllClose(var.Materialize(), initial, 0.0f));
  EXPECT_EQ(var.num_partitions(), 4);
}

TEST(PsVariableTest, PartitionedSparseUpdateEqualsWholeUpdate) {
  Rng rng(42);
  Tensor initial = RandomNormal(TensorShape({20, 4}), rng);
  PsVariable whole(initial, 1);
  PsVariable split(initial, 6);
  std::vector<int64_t> indices = {0, 5, 5, 13, 19};
  IndexedSlices grad(indices, RandomNormal(TensorShape({5, 4}), rng),
                     TensorShape({20, 4}));
  whole.ApplySparseSgd(grad, 0.3f);
  split.ApplySparseSgd(grad, 0.3f);
  EXPECT_TRUE(AllClose(whole.Materialize(), split.Materialize(), 1e-6f));
}

TEST(PsVariableTest, PartitionedDenseUpdateEqualsWholeUpdate) {
  Rng rng(43);
  Tensor initial = RandomNormal(TensorShape({20, 4}), rng);
  PsVariable whole(initial, 1);
  PsVariable split(initial, 5);
  Tensor grad = RandomNormal(TensorShape({20, 4}), rng);
  whole.ApplyDenseSgd(grad, 0.3f);
  split.ApplyDenseSgd(grad, 0.3f);
  EXPECT_TRUE(AllClose(whole.Materialize(), split.Materialize(), 1e-6f));
}

TEST(PsNumericTest, SumAggregationScalesLikeRankCount) {
  WordLmModel model({.vocab_size = 30, .embedding_dim = 4, .hidden_dim = 6,
                     .batch_per_rank = 8, .seed = 103});
  PsNumericConfig sum_config;
  sum_config.dense_aggregation = AggregationMethod::kSum;
  sum_config.sparse_aggregation = AggregationMethod::kSum;
  PsNumericEngine sum_engine(model.graph(), sum_config);
  PsNumericEngine avg_engine(model.graph(), PsNumericConfig{});

  Rng rng(9);
  std::vector<StepResult> grads = ComputeGrads(model, sum_engine.CurrentValues(), 2, rng);
  // Applying the sum with lr is the same as applying the average with 2*lr.
  sum_engine.ApplyStep(grads, kLr);
  avg_engine.ApplyStep(grads, 2 * kLr);
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    EXPECT_TRUE(AllClose(sum_engine.CurrentValues().Get(static_cast<int>(v)),
                         avg_engine.CurrentValues().Get(static_cast<int>(v)), 1e-5f));
  }
}

TEST(PsNumericTest, ManagedVariablesFilterUpdates) {
  WordLmModel model({.vocab_size = 30, .embedding_dim = 4, .hidden_dim = 6,
                     .batch_per_rank = 8, .seed = 104});
  PsNumericConfig config;
  config.managed_variables = {0};  // only the input embedding
  PsNumericEngine engine(model.graph(), config);
  VariableStore before = engine.CurrentValues();
  EXPECT_TRUE(before.Contains(0));
  EXPECT_FALSE(before.Contains(1));
  Rng rng(11);
  std::vector<StepResult> grads =
      ComputeGrads(model, VariableStore::InitFrom(*model.graph()), 2, rng);
  engine.ApplyStep(grads, kLr);
  VariableStore after = engine.CurrentValues();
  EXPECT_GT(MaxAbsDiff(before.Get(0), after.Get(0)), 0.0f);
}

}  // namespace
}  // namespace parallax
