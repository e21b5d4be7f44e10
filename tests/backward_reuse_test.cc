// The executor's backward pass reuses forward intermediates instead of recomputing
// them: the loss node's softmax probabilities and the gathered rows of a GatherDotT.
// These tests rebuild both outside the executor — a separate forward pass, then
// SoftmaxCrossEntropy and GatherRows — and require the gradients RunStepInto produces
// to match them bit for bit. Every step runs warm through one scratch on new data, so
// an intermediate left over from the previous step would show.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/base/rng.h"
#include "src/graph/executor.h"
#include "src/models/trainable.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

void ExpectSameBits(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_TRUE(got.shape() == want.shape()) << what;
  auto g = got.floats();
  auto w = want.floats();
  EXPECT_EQ(std::memcmp(g.data(), w.data(), g.size() * sizeof(float)), 0) << what;
}

// Both models end in SoftmaxXentMean(GatherDotT(x, table, candidates), labels), where x
// feeds only the GatherDotT and the table receives only its sparse gradient.
template <typename Model>
void CheckBackwardReuse(Model& model, int steps) {
  const Graph& graph = *model.graph();
  const Node& loss = graph.nodes()[static_cast<size_t>(model.loss())];
  const NodeId logits_id = loss.inputs[0];
  const Node& logits = graph.nodes()[static_cast<size_t>(logits_id)];
  ASSERT_EQ(logits.type, OpType::kGatherDotT);
  const NodeId x_id = logits.inputs[0];
  const NodeId candidates_id = logits.inputs[2];
  const int table = graph.nodes()[static_cast<size_t>(logits.inputs[1])].variable_index;

  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(graph);
  ExecScratch scratch;
  StepResult result;
  Rng rng(91);
  for (int s = 0; s < steps; ++s) {
    const std::string step = "step " + std::to_string(s);
    FeedMap feeds = model.TrainShards(1, rng)[0];
    executor.RunStepInto(store, feeds, model.loss(), &scratch, &result);

    Tensor x = executor.RunForward(store, feeds, x_id);
    Tensor logits_value = executor.RunForward(store, feeds, logits_id);
    Tensor logits_grad;
    float loss_value =
        SoftmaxCrossEntropy(logits_value, feeds.at(loss.inputs[1]), &logits_grad);
    EXPECT_EQ(result.loss, loss_value) << step;

    const Tensor* got_logits_grad = scratch.node_gradient(logits_id);
    ASSERT_NE(got_logits_grad, nullptr) << step;
    ExpectSameBits(*got_logits_grad, logits_grad, "logits gradient, " + step);

    Tensor selected = GatherRows(store.Get(table), feeds.at(candidates_id).ints());
    const Tensor* got_x_grad = scratch.node_gradient(x_id);
    ASSERT_NE(got_x_grad, nullptr) << step;
    ExpectSameBits(*got_x_grad, MatMul(logits_grad, selected), "x gradient, " + step);

    const GradValue& table_grad = result.grads.at(table);
    ASSERT_TRUE(table_grad.is_sparse()) << step;
    ExpectSameBits(table_grad.sparse().values(), MatMulTransposeA(logits_grad, x),
                   "table gradient, " + step);

    for (const auto& [variable, grad] : result.grads) {
      store.ApplySgd(variable, grad, 0.1f);
    }
  }
}

TEST(BackwardReuseTest, WordLmGradientsMatchRecomputedSoftmaxAndGather) {
  WordLmModel model({.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
                     .batch_per_rank = 32, .seed = 5});
  CheckBackwardReuse(model, 4);
}

TEST(BackwardReuseTest, SmallWordLmGradientsMatchRecomputedSoftmaxAndGather) {
  // Widths below one register strip: only the remainder paths of the kernels run.
  WordLmModel model({.vocab_size = 80, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 6});
  CheckBackwardReuse(model, 4);
}

TEST(BackwardReuseTest, EmbeddingSkewGradientsMatchRecomputedSoftmaxAndGather) {
  EmbeddingSkewModel::Options options;
  options.batch_per_rank = 64;
  EmbeddingSkewModel model(options);
  CheckBackwardReuse(model, 4);
}

TEST(BackwardReuseTest, NodeGradientIsNullForVariablesAndUnreachedNodes) {
  WordLmModel model({.vocab_size = 80, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 7});
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  ExecScratch scratch;
  EXPECT_EQ(scratch.node_gradient(model.loss()), nullptr);  // no step yet
  Rng rng(8);
  executor.RunStep(store, model.TrainShards(1, rng)[0], model.loss(), &scratch);
  for (const VariableDef& variable : model.graph()->variables()) {
    EXPECT_EQ(scratch.node_gradient(variable.node), nullptr) << variable.name;
  }
  // The loss node is the fetch: nothing flows into it.
  EXPECT_EQ(scratch.node_gradient(model.loss()), nullptr);
}

}  // namespace
}  // namespace parallax
