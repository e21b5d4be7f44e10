#include <gtest/gtest.h>

#include <cstring>

#include "src/ar/ar_numeric.h"
#include "src/base/rng.h"
#include "src/models/trainable.h"
#include "src/ps/ps_numeric.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

constexpr float kLr = 0.2f;

std::vector<StepResult> ComputeGrads(NmtSurrogateModel& model, const VariableStore& values,
                                     int ranks, Rng& rng) {
  Executor executor(model.graph());
  std::vector<FeedMap> shards = model.TrainShards(ranks, rng);
  std::vector<StepResult> results;
  for (int r = 0; r < ranks; ++r) {
    results.push_back(executor.RunStep(values, shards[static_cast<size_t>(r)], model.loss()));
  }
  return results;
}

// A SyncPlan routing every variable to "ar" on `num_ranks` ranks.
SyncPlan AllToAr(const Graph& graph, int num_ranks) {
  SyncPlan plan;
  plan.num_ranks = num_ranks;
  for (const VariableDef& def : graph.variables()) {
    VariableSync sync;
    sync.spec.name = def.name;
    plan.variables.push_back(sync);
    plan.engines.push_back("ar");
  }
  return plan;
}

TEST(ArNumericTest, RePrepareKeepsOneBufferPerVariable) {
  // Identical replicas are one value: the engine keeps one buffer per variable across
  // a re-Prepare with another rank count (an elastic rescale), View() hands that buffer
  // out to every rank, and a step runs on whatever number of ranks reports.
  NmtSurrogateModel model({.vocab_size = 40, .embedding_dim = 5, .hidden_dim = 7,
                           .batch_per_rank = 10, .seed = 201});
  const Graph& graph = *model.graph();
  ArNumericEngine engine(model.graph());
  engine.Prepare(AllToAr(graph, 4));
  Rng rng(21);
  engine.ApplyStep(ComputeGrads(model, engine.View(), 4, rng), kLr);
  const VariableStore first = engine.View();
  const VariableStore snapshot = first.Clone();

  engine.Prepare(AllToAr(graph, 2));
  const VariableStore second = engine.View();
  ASSERT_EQ(second.size(), graph.variables().size());
  for (const auto& [v, value] : second.values()) {
    EXPECT_TRUE(value.SharesBufferWith(first.Get(v))) << "variable " << v;
    EXPECT_FALSE(value.SharesBufferWith(snapshot.Get(v))) << "variable " << v;
    EXPECT_EQ(std::memcmp(value.floats().data(), snapshot.Get(v).floats().data(),
                          value.floats().size() * sizeof(float)),
              0)
        << "variable " << v;
  }
  // The two-rank step writes through the buffers every earlier View handed out.
  engine.ApplyStep(ComputeGrads(model, second, 2, rng), kLr);
  EXPECT_GT(MaxAbsDiff(first.Get(3), snapshot.Get(3)), 0.0f);
}

TEST(ArNumericTest, MatchesPsEngineTrajectory) {
  // The paper's implicit claim: PS and AR are different *mechanisms* for the same
  // synchronous-SGD math. Both engines, fed the same per-rank gradients, must produce
  // the same parameter values (modulo float summation order).
  NmtSurrogateModel model({.vocab_size = 40, .embedding_dim = 5, .hidden_dim = 7,
                           .batch_per_rank = 10, .seed = 202});
  ArNumericEngine ar(model.graph());
  PsNumericConfig ps_config;
  ps_config.local_aggregation = true;
  ps_config.ranks_per_machine = 2;
  PsNumericEngine ps(model.graph(), ps_config);

  Rng rng(22);
  for (int step = 0; step < 5; ++step) {
    std::vector<StepResult> grads = ComputeGrads(model, ar.View(), 4, rng);
    ar.ApplyStep(grads, kLr);
    ps.ApplyStep(grads, kLr);
    VariableStore ps_values = ps.CurrentValues();
    for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
      EXPECT_TRUE(AllClose(ar.View().Get(static_cast<int>(v)),
                           ps_values.Get(static_cast<int>(v)), 3e-4f))
          << model.graph()->variables()[v].name << " step " << step;
    }
  }
}

TEST(ArNumericTest, SparseAggregationIsConcatenation) {
  // AllGatherv semantics: the aggregated sparse gradient applied to the variables is the
  // concatenation of per-rank slices (scaled for averaging) — verified against a manual
  // dense computation.
  NmtSurrogateModel model({.vocab_size = 30, .embedding_dim = 4, .hidden_dim = 6,
                           .batch_per_rank = 8, .seed = 203});
  ArNumericEngine engine(model.graph());
  Rng rng(23);
  VariableStore before = engine.View().Clone();
  std::vector<StepResult> grads = ComputeGrads(model, engine.View(), 2, rng);
  engine.ApplyStep(grads, kLr);

  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    int key = static_cast<int>(v);
    const TensorShape& shape = model.graph()->variables()[v].shape;
    Tensor mean_grad = Tensor::Zeros(shape);
    AddInPlace(mean_grad, grads[0].grads.at(key).ToDense(shape));
    AddInPlace(mean_grad, grads[1].grads.at(key).ToDense(shape));
    ScaleInPlace(mean_grad, 0.5f);
    Tensor expected = before.Get(key).Clone();
    AxpyInPlace(expected, -kLr, mean_grad);
    EXPECT_TRUE(AllClose(engine.View().Get(key), expected, 1e-5f))
        << model.graph()->variables()[v].name;
  }
}

TEST(ArNumericTest, ManagedVariablesLeaveOthersUntouched) {
  NmtSurrogateModel model({.vocab_size = 30, .embedding_dim = 4, .hidden_dim = 6,
                           .batch_per_rank = 8, .seed = 204});
  ArNumericConfig config;
  config.managed_variables = {3, 4};  // dense weights only
  ArNumericEngine engine(model.graph(), config);
  const VariableStore before = VariableStore::InitFrom(*model.graph());
  Rng rng(24);
  std::vector<StepResult> grads = ComputeGrads(model, before, 2, rng);
  engine.ApplyStep(grads, kLr);
  // The view holds the managed variables only, and the managed dense weight changed.
  VariableStore view = engine.View();
  EXPECT_FALSE(view.Contains(0));
  EXPECT_GT(MaxAbsDiff(view.Get(3), before.Get(3)), 0.0f);
  // Routing every variable here shows the unmanaged embedding: unchanged.
  engine.Prepare(AllToAr(*model.graph(), 2));
  EXPECT_EQ(MaxAbsDiff(engine.View().Get(0), before.Get(0)), 0.0f);
}

}  // namespace
}  // namespace parallax
