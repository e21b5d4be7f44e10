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

class PsConfigParamTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PsConfigParamTest, MatchesSingleDeviceReference) {
  // The engine holds every variable whole; P splits only the seed's server, the oracle
  // the engine must match bit for bit at every P.
  auto [partitions, local_agg] = GetParam();
  WordLmModel model({.vocab_size = 40, .embedding_dim = 6, .hidden_dim = 8,
                     .batch_per_rank = 12, .seed = 101});
  const Graph& graph = *model.graph();
  PsNumericConfig config;
  config.local_aggregation = local_agg;
  config.ranks_per_machine = 2;
  PsNumericEngine engine(model.graph(), config);

  VariableStore reference = VariableStore::InitFrom(graph);
  VariableStore split_oracle = VariableStore::InitFrom(graph);
  Rng rng(7);
  for (int step = 0; step < 5; ++step) {
    // Workers read the PS values (engine and reference must agree at every step).
    std::vector<StepResult> grads = ComputeGrads(model, engine.CurrentValues(), 4, rng);
    engine.ApplyStep(grads, kLr);
    reference = ReferenceStep(graph, grads, std::move(reference), kLr);
    VariableStore actual = engine.CurrentValues();
    for (size_t v = 0; v < graph.variables().size(); ++v) {
      const int key = static_cast<int>(v);
      EXPECT_TRUE(AllClose(actual.Get(key), reference.Get(key), 2e-4f))
          << "variable " << graph.variables()[v].name << " at step " << step
          << " with P=" << partitions << " local_agg=" << local_agg;
      if (grads.front().grads.count(key) > 0) {
        NaivePsVariableStep(split_oracle.GetMutable(key), ShardsOf(graph, key, partitions),
                            key, grads, local_agg ? 2 : 1, AggregationMethod::kAverage,
                            AggregationMethod::kAverage, kLr);
      }
      ExpectSameBits(actual.Get(key), split_oracle.Get(key),
                     StrFormat("P=%d local_agg=%d step=%d var=%zu", partitions,
                               local_agg ? 1 : 0, step, v));
    }
  }
}

// P = 64 exceeds the 40 rows of the model's partitioner-scoped tables: the oracle's
// request is row-capped to one row per piece.
INSTANTIATE_TEST_SUITE_P(Configs, PsConfigParamTest,
                         ::testing::Combine(::testing::Values(1, 4, 8, 64),
                                            ::testing::Bool()));

// A SyncPlan routing every variable to `engine` on `num_ranks` ranks, two per machine:
// each partitioner-scoped table split `partitions` ways and, when `placement` names
// that many pieces, placed on those servers.
SyncPlan PlanFor(const Graph& graph, const std::string& engine, int partitions,
                 const std::vector<int>& placement, int num_ranks) {
  SyncPlan plan;
  plan.num_ranks = num_ranks;
  plan.ranks_per_machine = 2;
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    VariableSync sync;
    sync.spec.name = graph.variables()[v].name;
    sync.partitions = ShardsOf(graph, static_cast<int>(v), partitions);
    if (placement.size() == static_cast<size_t>(sync.partitions)) {
      sync.placement = placement;
    }
    plan.variables.push_back(sync);
    plan.engines.push_back(engine);
  }
  return plan;
}

TEST(PsNumericTest, RePrepareKeepsOneBufferPerVariable) {
  // A layout decides where rows live, never what they hold: every PS-family engine
  // keeps one buffer per variable across a re-Prepare with another partition count,
  // placement and rank count, and View() hands that buffer out. CurrentValues() is a
  // snapshot that shares none of them.
  WordLmModel model = OracleLm();
  const Graph& graph = *model.graph();
  for (const std::string name : {"ps", "async_ps", "topk_ps", "int8_ps"}) {
    auto created = SyncEngineRegistry::Global().CreateChecked(name, {model.graph()});
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    SyncEngine& engine = *created.value();
    engine.Prepare(PlanFor(graph, name, 1, {}, 4));
    Rng rng(41);
    engine.ApplyStep(ComputeGrads(model, engine.View(), 4, rng), kLr);
    const VariableStore first = engine.View();
    const VariableStore snapshot = first.Clone();

    engine.Prepare(PlanFor(graph, name, 3, {1, 0, 1}, 6));
    const VariableStore second = engine.View();
    ASSERT_EQ(second.size(), graph.variables().size()) << name;
    for (const auto& [v, value] : second.values()) {
      EXPECT_TRUE(value.SharesBufferWith(first.Get(v))) << name << " variable " << v;
      ExpectSameBits(value, snapshot.Get(v), StrFormat("%s variable %d", name.c_str(), v));
    }
    if (const auto* ps = dynamic_cast<const PsNumericEngine*>(&engine)) {
      const VariableStore current = ps->CurrentValues();
      ASSERT_EQ(current.size(), second.size());
      for (const auto& [v, value] : current.values()) {
        EXPECT_FALSE(value.SharesBufferWith(second.Get(v))) << "variable " << v;
      }
    }
  }
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

// ---- The slot-table sums against the seed's per-variable pipeline -------------------
//
// PsNumericEngine::ApplyStep sums every sparse variable of a step on the variable's slot
// table, per machine and then globally, and writes the update row by row into each
// variable's one buffer. The oracle is the seed's pipeline, one variable at a time, on
// a server split into P row pieces (NaivePsVariableStep in tests/naive_reference.h).
// Every comparison is memcmp: the slot pass must reproduce the seed's per-row float
// additions exactly, whatever the oracle's P.

TEST(PsNumericTest, ApplyStepBitIdenticalToNaivePerVariableOracle) {
  WordLmModel model = OracleLm();
  const Graph& graph = *model.graph();
  const AggregationMethod kMethods[] = {AggregationMethod::kSum, AggregationMethod::kAverage};
  for (const std::vector<int>& managed : {std::vector<int>{0}, std::vector<int>{0, 1}}) {
    for (int partitions : {1, 3, 7}) {
      for (bool local_agg : {false, true}) {
        for (AggregationMethod method : kMethods) {
          PsNumericConfig config;
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
  // single contribution per row-sum, through the same slot-table sum.
  WordLmModel model = OracleLm();
  const Graph& graph = *model.graph();
  for (const std::vector<int>& managed : {std::vector<int>{0}, std::vector<int>{0, 1}}) {
    for (int partitions : {1, 3, 7}) {
      PsNumericConfig config;
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
