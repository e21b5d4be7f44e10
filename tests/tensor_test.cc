#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/graph/executor.h"
#include "src/models/trainable.h"
#include "src/ps/ps_numeric.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

TEST(ShapeTest, Basics) {
  TensorShape s({3, 4, 5});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.num_elements(), 60);
  EXPECT_EQ(s.row_elements(), 20);
  EXPECT_EQ(s.WithDim0(7).dim(0), 7);
  EXPECT_EQ(s.ToString(), "[3, 4, 5]");
  EXPECT_TRUE(TensorShape({2}) == TensorShape({2}));
  EXPECT_TRUE(TensorShape({2}) != TensorShape({3}));
}

TEST(ShapeTest, ScalarShape) {
  TensorShape s{};
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.num_elements(), 1);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t = Tensor::Zeros(TensorShape({2, 3}));
  for (float v : t.floats()) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(TensorTest, SharedBufferSemantics) {
  Tensor a = Tensor::Filled(TensorShape({4}), 2.0f);
  Tensor b = a;  // shares storage
  EXPECT_TRUE(a.SharesBufferWith(b));
  Tensor c = a.Clone();
  EXPECT_FALSE(a.SharesBufferWith(c));
  c.mutable_floats()[0] = 9.0f;
  EXPECT_EQ(a.at(0), 2.0f);
}

TEST(TensorTest, IntTensor) {
  Tensor t = Tensor::FromIndices({5, 6, 7}, TensorShape({3}));
  EXPECT_TRUE(t.is_int());
  EXPECT_EQ(t.ints()[2], 7);
}

TEST(TensorOpsTest, AddSubMulScale) {
  Tensor a = Tensor::FromVector({1, 2, 3}, TensorShape({3}));
  Tensor b = Tensor::FromVector({10, 20, 30}, TensorShape({3}));
  EXPECT_EQ(Add(a, b).at(1), 22.0f);
  EXPECT_EQ(Sub(b, a).at(2), 27.0f);
  EXPECT_EQ(Mul(a, b).at(0), 10.0f);
  EXPECT_EQ(Scale(a, 2.5f).at(2), 7.5f);
  Tensor c = a.Clone();
  AxpyInPlace(c, -2.0f, b);
  EXPECT_EQ(c.at(0), -19.0f);
}

TEST(TensorOpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, TensorShape({2, 2}));
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, TensorShape({2, 2}));
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0), 19.0f);
  EXPECT_EQ(c.at(1), 22.0f);
  EXPECT_EQ(c.at(2), 43.0f);
  EXPECT_EQ(c.at(3), 50.0f);
}

TEST(TensorOpsTest, MatMulTransposesAgree) {
  Rng rng(1);
  Tensor a = RandomNormal(TensorShape({4, 6}), rng);
  Tensor b = RandomNormal(TensorShape({6, 5}), rng);
  Tensor expected = MatMul(a, b);
  // A x B == (A^T)^T x B via MatMulTransposeA.
  EXPECT_TRUE(AllClose(MatMulTransposeA(Transpose2D(a), b), expected, 1e-5f));
  // A x B == A x (B^T)^T via MatMulTransposeB.
  EXPECT_TRUE(AllClose(MatMulTransposeB(a, Transpose2D(b)), expected, 1e-5f));
}

TEST(TensorOpsTest, TransposeInvolution) {
  Rng rng(2);
  Tensor a = RandomNormal(TensorShape({3, 7}), rng);
  EXPECT_TRUE(AllClose(Transpose2D(Transpose2D(a)), a, 0.0f));
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor logits = RandomNormal(TensorShape({5, 9}), rng, 3.0f);
  Tensor probs = SoftmaxRows(logits);
  auto p = probs.floats();
  for (int64_t r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 9; ++c) {
      float v = p[static_cast<size_t>(r * 9 + c)];
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorOpsTest, SoftmaxCrossEntropyGradientMatchesFiniteDifference) {
  Rng rng(4);
  Tensor logits = RandomNormal(TensorShape({3, 5}), rng);
  Tensor labels = Tensor::FromIndices({1, 4, 0}, TensorShape({3}));
  Tensor grad;
  float loss = SoftmaxCrossEntropy(logits, labels, &grad);
  EXPECT_GT(loss, 0.0f);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.num_elements(); ++i) {
    Tensor perturbed = logits.Clone();
    perturbed.mutable_floats()[static_cast<size_t>(i)] += eps;
    float loss_up = SoftmaxCrossEntropy(perturbed, labels, nullptr);
    perturbed.mutable_floats()[static_cast<size_t>(i)] -= 2 * eps;
    float loss_down = SoftmaxCrossEntropy(perturbed, labels, nullptr);
    float numeric = (loss_up - loss_down) / (2 * eps);
    EXPECT_NEAR(grad.at(i), numeric, 5e-3f) << "logit index " << i;
  }
}

TEST(TensorOpsTest, GatherRows) {
  Tensor params = Tensor::FromVector({0, 1, 10, 11, 20, 21}, TensorShape({3, 2}));
  std::vector<int64_t> indices = {2, 0, 2};
  Tensor out = GatherRows(params, indices);
  EXPECT_EQ(out.shape().dim(0), 3);
  EXPECT_EQ(out.at(0), 20.0f);
  EXPECT_EQ(out.at(2), 0.0f);
  EXPECT_EQ(out.at(4), 20.0f);
}

TEST(TensorOpsTest, ScatterAddAccumulatesDuplicates) {
  Tensor params = Tensor::Zeros(TensorShape({4, 2}));
  IndexedSlices slices({1, 1, 3}, Tensor::FromVector({1, 2, 3, 4, 5, 6}, TensorShape({3, 2})),
                       TensorShape({4, 2}));
  ScatterAddInPlace(params, slices);
  EXPECT_EQ(params.at(2), 4.0f);  // row 1 col 0: 1 + 3
  EXPECT_EQ(params.at(3), 6.0f);  // row 1 col 1: 2 + 4
  EXPECT_EQ(params.at(6), 5.0f);  // row 3 col 0
}

TEST(TensorOpsTest, ScatterSgdUpdateMatchesDenseUpdate) {
  Rng rng(5);
  Tensor dense_var = RandomNormal(TensorShape({6, 3}), rng);
  Tensor sparse_var = dense_var.Clone();
  IndexedSlices grad({0, 2, 2, 5},
                     RandomNormal(TensorShape({4, 3}), rng), TensorShape({6, 3}));
  // Dense path: densify then axpy.
  AxpyInPlace(dense_var, -0.5f, grad.ToDense());
  // Sparse path.
  ScatterSgdUpdate(sparse_var, grad, 0.5f);
  EXPECT_TRUE(AllClose(dense_var, sparse_var, 1e-6f));
}

TEST(TensorOpsTest, SliceAndConcatRowsRoundTrip) {
  Rng rng(6);
  Tensor t = RandomNormal(TensorShape({7, 3}), rng);
  std::vector<Tensor> pieces = {SliceRows(t, 0, 2), SliceRows(t, 2, 5), SliceRows(t, 5, 7)};
  EXPECT_TRUE(AllClose(ConcatRows(pieces), t, 0.0f));
}

TEST(TensorOpsTest, SliceRowsIntTensor) {
  Tensor t = Tensor::FromIndices({9, 8, 7, 6}, TensorShape({4}));
  Tensor s = SliceRows(t, 1, 3);
  ASSERT_TRUE(s.is_int());
  EXPECT_EQ(s.ints()[0], 8);
  EXPECT_EQ(s.ints()[1], 7);
}

TEST(TensorOpsTest, SliceColsAndConcatColsRoundTrip) {
  Rng rng(7);
  Tensor t = RandomNormal(TensorShape({4, 6}), rng);
  Tensor left = SliceCols(t, 0, 2);
  Tensor right = SliceCols(t, 2, 6);
  EXPECT_TRUE(AllClose(ConcatColsPair(left, right), t, 0.0f));
}

TEST(TensorOpsTest, ColumnSum) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, TensorShape({2, 3}));
  Tensor sums = ColumnSum(t);
  EXPECT_EQ(sums.at(0), 5.0f);
  EXPECT_EQ(sums.at(1), 7.0f);
  EXPECT_EQ(sums.at(2), 9.0f);
}

TEST(TensorOpsTest, ActivationGradients) {
  Rng rng(8);
  Tensor x = RandomNormal(TensorShape({10}), rng);
  Tensor y = Tanh(x);
  Tensor ones = Tensor::Filled(TensorShape({10}), 1.0f);
  Tensor g = TanhGrad(y, ones);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(g.at(i), 1.0f - y.at(i) * y.at(i), 1e-6f);
  }
  Tensor r = Relu(x);
  Tensor rg = ReluGrad(x, ones);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.at(i), std::max(x.at(i), 0.0f));
    EXPECT_EQ(rg.at(i), x.at(i) > 0.0f ? 1.0f : 0.0f);
  }
}

TEST(TensorOpsTest, GlorotUniformWithinLimit) {
  Rng rng(9);
  Tensor w = GlorotUniform(TensorShape({30, 20}), rng);
  float limit = std::sqrt(6.0f / 50.0f);
  for (float v : w.floats()) {
    EXPECT_LE(std::fabs(v), limit);
  }
}

bool OnCacheLine(const Tensor& t) {
  return reinterpret_cast<uintptr_t>(t.floats().data()) % kTensorAlignment == 0;
}

TEST(TensorTest, EveryFloatBufferStartsOnACacheLine) {
  // Sizes 1..40 floats: a 16-byte-aligned allocator would put about three in four of
  // these buffers off a 64-byte boundary.
  Rng rng(64);
  for (int64_t n = 1; n <= 40; ++n) {
    const TensorShape shape({n});
    std::vector<float> values(static_cast<size_t>(n), 0.5f);
    const Tensor zeros = Tensor::Zeros(shape);
    const Tensor filled = Tensor::Filled(shape, 1.5f);
    const Tensor scalar = Tensor::Scalar(static_cast<float>(n));
    const Tensor from_vector = Tensor::FromVector(values, shape);
    const Tensor clone = filled.Clone();
    const Tensor normal = RandomNormal(TensorShape({n, 3}), rng);
    EXPECT_TRUE(OnCacheLine(zeros)) << "Zeros, n = " << n;
    EXPECT_TRUE(OnCacheLine(filled)) << "Filled, n = " << n;
    EXPECT_TRUE(OnCacheLine(scalar)) << "Scalar, n = " << n;
    EXPECT_TRUE(OnCacheLine(from_vector)) << "FromVector, n = " << n;
    EXPECT_TRUE(OnCacheLine(clone)) << "Clone, n = " << n;
    EXPECT_TRUE(OnCacheLine(normal)) << "RandomNormal, n = " << n;

    // A destination-passing kernel reallocates its output on a shape change.
    Tensor out = Tensor::Zeros(TensorShape({1, 1}));
    MatMulInto(out, Tensor::Filled(TensorShape({2, n}), 1.0f),
               Tensor::Filled(TensorShape({n, 3}), 1.0f));
    ASSERT_EQ(out.shape(), TensorShape({2, 3}));
    EXPECT_TRUE(OnCacheLine(out)) << "MatMulInto output, n = " << n;
  }
}

TEST(TensorTest, EngineAndGradientBuffersStartOnACacheLine) {
  // The executor's dense and IndexedSlices gradients, and an engine's buffers after its
  // first write, over a few model sizes.
  for (int64_t vocab : {37, 50, 61}) {
    WordLmModel model({.vocab_size = vocab, .embedding_dim = 5, .hidden_dim = 7,
                       .batch_per_rank = 6, .seed = static_cast<uint64_t>(vocab)});
    const Graph& graph = *model.graph();
    PsNumericEngine engine(model.graph(), PsNumericConfig{});
    Rng rng(vocab);
    const std::vector<FeedMap> feeds = model.TrainShards(2, rng);
    std::vector<StepResult> results;
    for (const FeedMap& feed : feeds) {
      results.push_back(Executor(model.graph()).RunStep(engine.View(), feed, model.loss()));
    }
    int dense = 0;
    int sparse = 0;
    for (const StepResult& result : results) {
      for (const auto& [v, grad] : result.grads) {
        const Tensor& values = grad.is_sparse() ? grad.sparse().values() : grad.dense();
        (grad.is_sparse() ? sparse : dense) += 1;
        EXPECT_TRUE(OnCacheLine(values)) << graph.variables()[static_cast<size_t>(v)].name
                                         << " gradient, vocab " << vocab;
      }
    }
    EXPECT_GT(dense, 0);
    EXPECT_GT(sparse, 0);

    engine.ApplyStep(results, 0.1f);
    const VariableStore view = engine.View();
    for (const auto& [v, value] : view.values()) {
      const VariableDef& def = graph.variables()[static_cast<size_t>(v)];
      EXPECT_FALSE(value.SharesBufferWith(def.initial_value)) << def.name;
      EXPECT_TRUE(OnCacheLine(value)) << def.name << " after the first write, vocab " << vocab;
    }
  }
}

}  // namespace
}  // namespace parallax
