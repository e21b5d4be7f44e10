#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/partition_plan.h"
#include "src/models/trainable.h"
#include "src/ps/ps_async.h"
#include "src/ps/ps_numeric.h"
#include "src/tensor/tensor_ops.h"
#include "tests/naive_reference.h"

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
  // The sparse step updates each aggregated row in place through MutableRow, which
  // resolves the row's piece; a split variable must end up with the whole one's bits.
  Rng rng(42);
  Tensor initial = RandomNormal(TensorShape({20, 4}), rng);
  PsVariable whole(initial, 1);
  PsVariable split(initial, 6);
  std::vector<int64_t> indices = {0, 5, 5, 13, 19};
  Tensor values = RandomNormal(TensorShape({5, 4}), rng);
  for (PsVariable* variable : {&whole, &split}) {
    for (size_t i = 0; i < indices.size(); ++i) {
      float* dst = variable->MutableRow(indices[i]);
      for (int64_t j = 0; j < 4; ++j) {
        dst[j] -= 0.3f * values.floats()[i * 4 + static_cast<size_t>(j)];
      }
    }
  }
  EXPECT_TRUE(AllClose(whole.Materialize(), split.Materialize(), 0.0f));
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

// ---- The fused sparse pass against the seed's per-variable pipeline -----------------
//
// PsNumericEngine::ApplyStep sends every sparse variable of a step, one included,
// through one fused MultiVariableSum pass per aggregation level and applies the update
// row by row in the shards. The oracle is the seed's pipeline, one variable at a time
// (NaivePsVariableStep in tests/naive_reference.h). Every comparison is memcmp: the
// fused pass must reproduce the seed's per-row float additions exactly.

void ExpectSameBits(const Tensor& got, const Tensor& want, const std::string& context) {
  ASSERT_TRUE(got.shape() == want.shape()) << context;
  ASSERT_EQ(std::memcmp(got.floats().data(), want.floats().data(),
                        got.floats().size() * sizeof(float)),
            0)
      << context;
}

// WordLm's two sparse tables: 0 = embedding (width embedding_dim), 1 = softmax_emb
// (width hidden_dim).
WordLmModel OracleLm() {
  return WordLmModel({.vocab_size = 40, .embedding_dim = 6, .hidden_dim = 8,
                      .batch_per_rank = 12, .seed = 105});
}

int ShardsOf(const Graph& graph, int variable, int partitions) {
  const VariableDef& def = graph.variables()[static_cast<size_t>(variable)];
  return def.partitioner_scope ? RowCappedPartitions(partitions, def.shape.dim(0)) : 1;
}

TEST(PsNumericTest, ApplyStepBitIdenticalToNaivePerVariableOracle) {
  WordLmModel model = OracleLm();
  const Graph& graph = *model.graph();
  const AggregationMethod kMethods[] = {AggregationMethod::kSum, AggregationMethod::kAverage};
  for (const std::vector<int>& managed : {std::vector<int>{0}, std::vector<int>{0, 1}}) {
    for (int partitions : {1, 3, 7}) {
      for (bool local_agg : {false, true}) {
        for (AggregationMethod method : kMethods) {
          PsNumericConfig config;
          config.variable_partitions.assign(graph.variables().size(), partitions);
          config.local_aggregation = local_agg;
          config.ranks_per_machine = 2;
          config.dense_aggregation = method;
          config.sparse_aggregation = method;
          config.managed_variables = managed;
          PsNumericEngine engine(model.graph(), config);
          // The oracle holds every variable; the unmanaged ones keep their initial values,
          // as they do for the workers reading the engine.
          VariableStore oracle = VariableStore::InitFrom(graph);
          Rng rng(static_cast<uint64_t>(17 + partitions));
          for (int step = 0; step < 5; ++step) {
            // Six ranks: three machines under local aggregation, and an averaging scale
            // of 1/6, which (unlike 1/4) rounds, so the order of the scale and the
            // learning-rate products shows in the bits.
            std::vector<StepResult> grads = ComputeGrads(model, oracle, 6, rng);
            engine.ApplyStep(grads, kLr);
            for (int v : managed) {
              ASSERT_TRUE(grads.front().grads.at(v).is_sparse());
              NaivePsVariableStep(oracle.GetMutable(v), ShardsOf(graph, v, partitions), v,
                                  grads, local_agg ? 2 : 1, method, method, kLr);
            }
            VariableStore actual = engine.CurrentValues();
            for (int v : managed) {
              ExpectSameBits(actual.Get(v), oracle.Get(v),
                             StrFormat("variables=%zu P=%d local_agg=%d %s step=%d var=%d",
                                       managed.size(), partitions, local_agg ? 1 : 0,
                                       method == AggregationMethod::kSum ? "sum" : "average",
                                       step, v));
            }
          }
        }
      }
    }
  }
}

TEST(PsNumericTest, AsyncPushesBitIdenticalToNaivePerVariableOracle) {
  // AsyncPsEngine applies each rank's push as a one-rank synchronous step with kSum: a
  // single contribution per row-sum, through the same fused pass.
  WordLmModel model = OracleLm();
  const Graph& graph = *model.graph();
  for (const std::vector<int>& managed : {std::vector<int>{0}, std::vector<int>{0, 1}}) {
    for (int partitions : {1, 3, 7}) {
      PsNumericConfig config;
      config.variable_partitions.assign(graph.variables().size(), partitions);
      config.managed_variables = managed;
      AsyncPsEngine engine(model.graph(), config);
      VariableStore oracle = VariableStore::InitFrom(graph);
      Rng rng(static_cast<uint64_t>(31 + partitions));
      for (int step = 0; step < 5; ++step) {
        // All ranks computed against the same values; their pushes then land one by one.
        std::vector<StepResult> grads = ComputeGrads(model, oracle, 3, rng);
        engine.ApplyStep(grads, kLr);
        for (const StepResult& push : grads) {
          for (int v : managed) {
            NaivePsVariableStep(oracle.GetMutable(v), ShardsOf(graph, v, partitions), v,
                                {push}, 1, AggregationMethod::kSum, AggregationMethod::kSum,
                                kLr);
          }
        }
        VariableStore actual = engine.CurrentValues();
        for (int v : managed) {
          ExpectSameBits(actual.Get(v), oracle.Get(v),
                         StrFormat("variables=%zu P=%d step=%d var=%d", managed.size(),
                                   partitions, step, v));
        }
      }
      EXPECT_EQ(engine.pushes_applied(), 15);
    }
  }
}

}  // namespace
}  // namespace parallax
