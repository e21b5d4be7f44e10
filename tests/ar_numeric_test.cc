#include <gtest/gtest.h>

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

TEST(ArNumericTest, ReplicasStayIdentical) {
  NmtSurrogateModel model({.vocab_size = 40, .embedding_dim = 5, .hidden_dim = 7,
                           .batch_per_rank = 10, .seed = 201});
  ArNumericEngine engine(model.graph(), 4);
  Rng rng(21);
  for (int step = 0; step < 4; ++step) {
    std::vector<StepResult> grads = ComputeGrads(model, engine.replica(0), 4, rng);
    // ApplyStep internally checks replica consistency and aborts on divergence.
    engine.ApplyStep(grads, kLr);
  }
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    EXPECT_TRUE(AllClose(engine.replica(0).Get(static_cast<int>(v)),
                         engine.replica(3).Get(static_cast<int>(v)), 0.0f));
  }
}

TEST(ArNumericTest, MatchesPsEngineTrajectory) {
  // The paper's implicit claim: PS and AR are different *mechanisms* for the same
  // synchronous-SGD math. Both engines, fed the same per-rank gradients, must produce
  // the same parameter values (modulo float summation order).
  NmtSurrogateModel model({.vocab_size = 40, .embedding_dim = 5, .hidden_dim = 7,
                           .batch_per_rank = 10, .seed = 202});
  ArNumericEngine ar(model.graph(), 4);
  PsNumericConfig ps_config;
  ps_config.variable_partitions.assign(model.graph()->variables().size(), 4);
  ps_config.local_aggregation = true;
  ps_config.ranks_per_machine = 2;
  PsNumericEngine ps(model.graph(), ps_config);

  Rng rng(22);
  for (int step = 0; step < 5; ++step) {
    std::vector<StepResult> grads = ComputeGrads(model, ar.replica(0), 4, rng);
    ar.ApplyStep(grads, kLr);
    ps.ApplyStep(grads, kLr);
    VariableStore ps_values = ps.CurrentValues();
    for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
      EXPECT_TRUE(AllClose(ar.replica(0).Get(static_cast<int>(v)),
                           ps_values.Get(static_cast<int>(v)), 3e-4f))
          << model.graph()->variables()[v].name << " step " << step;
    }
  }
}

TEST(ArNumericTest, SparseAggregationIsConcatenation) {
  // AllGatherv semantics: the aggregated sparse gradient applied to replicas is the
  // concatenation of per-rank slices (scaled for averaging) — verified against a manual
  // dense computation.
  NmtSurrogateModel model({.vocab_size = 30, .embedding_dim = 4, .hidden_dim = 6,
                           .batch_per_rank = 8, .seed = 203});
  ArNumericEngine engine(model.graph(), 2);
  Rng rng(23);
  VariableStore before = engine.replica(0).Clone();
  std::vector<StepResult> grads = ComputeGrads(model, engine.replica(0), 2, rng);
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
    EXPECT_TRUE(AllClose(engine.replica(0).Get(key), expected, 1e-5f))
        << model.graph()->variables()[v].name;
  }
}

TEST(ArNumericTest, ManagedVariablesLeaveOthersUntouched) {
  NmtSurrogateModel model({.vocab_size = 30, .embedding_dim = 4, .hidden_dim = 6,
                           .batch_per_rank = 8, .seed = 204});
  ArNumericConfig config;
  config.managed_variables = {3, 4};  // dense weights only
  ArNumericEngine engine(model.graph(), 2, config);
  VariableStore before = engine.replica(0).Clone();
  Rng rng(24);
  std::vector<StepResult> grads = ComputeGrads(model, engine.replica(0), 2, rng);
  engine.ApplyStep(grads, kLr);
  // Unmanaged embedding unchanged; managed dense weight changed.
  EXPECT_EQ(MaxAbsDiff(engine.replica(0).Get(0), before.Get(0)), 0.0f);
  EXPECT_GT(MaxAbsDiff(engine.replica(0).Get(3), before.Get(3)), 0.0f);
}

}  // namespace
}  // namespace parallax
