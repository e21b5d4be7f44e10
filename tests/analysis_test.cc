#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/analysis.h"
#include "src/models/trainable.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

TEST(AnalysisTest, ClassifiesLmVariables) {
  WordLmModel model({.vocab_size = 50, .embedding_dim = 6, .hidden_dim = 8,
                     .batch_per_rank = 16, .seed = 301});
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  Rng rng(31);
  std::vector<StepResult> samples;
  for (const FeedMap& feeds : model.TrainShards(3, rng)) {
    samples.push_back(executor.RunStep(store, feeds, model.loss()));
  }
  auto info = AnalyzeSparsity(*model.graph(), model.loss(), samples);
  const auto& vars = model.graph()->variables();
  for (size_t v = 0; v < vars.size(); ++v) {
    const VariableSparsity& s = info.at(static_cast<int>(v));
    if (vars[v].name == "embedding" || vars[v].name == "softmax_emb") {
      EXPECT_EQ(s.kind, GradKind::kSparse) << vars[v].name;
      // 16 draws from a 50-symbol Zipf vocabulary touch well under half the rows.
      EXPECT_GT(s.alpha, 0.0);
      EXPECT_LT(s.alpha, 0.5);
    } else {
      EXPECT_EQ(s.kind, GradKind::kDense) << vars[v].name;
      EXPECT_DOUBLE_EQ(s.alpha, 1.0);
    }
  }
}

TEST(AnalysisTest, AlphaGrowsWithBatchSize) {
  // Table 6's mechanism: more tokens per instance => higher alpha.
  auto measure_alpha = [](int64_t batch) {
    WordLmModel model({.vocab_size = 100, .embedding_dim = 4, .hidden_dim = 6,
                       .batch_per_rank = batch, .seed = 302});
    Executor executor(model.graph());
    VariableStore store = VariableStore::InitFrom(*model.graph());
    Rng rng(32);
    std::vector<StepResult> samples;
    for (const FeedMap& feeds : model.TrainShards(4, rng)) {
      samples.push_back(executor.RunStep(store, feeds, model.loss()));
    }
    return AnalyzeSparsity(*model.graph(), model.loss(), samples).at(0).alpha;
  };
  double alpha_small = measure_alpha(4);
  double alpha_large = measure_alpha(64);
  EXPECT_LT(alpha_small, alpha_large);
}

TEST(AnalysisTest, ToVariableSpecsCarriesStructure) {
  WordLmModel model({.vocab_size = 50, .embedding_dim = 6, .hidden_dim = 8,
                     .batch_per_rank = 16, .seed = 303});
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  Rng rng(33);
  std::vector<StepResult> samples;
  for (const FeedMap& feeds : model.TrainShards(2, rng)) {
    samples.push_back(executor.RunStep(store, feeds, model.loss()));
  }
  auto info = AnalyzeSparsity(*model.graph(), model.loss(), samples);
  std::vector<VariableSpec> specs = ToVariableSpecs(*model.graph(), info);
  ASSERT_EQ(specs.size(), model.graph()->variables().size());
  EXPECT_EQ(specs[0].num_elements, 50 * 6);
  EXPECT_EQ(specs[0].row_elements, 6);
  EXPECT_TRUE(specs[0].is_sparse);
}

TEST(AnalysisTest, HybridDecisionRules) {
  HybridOptions options{.alpha_dense_threshold = 0.8};
  VariableSparsity dense{.kind = GradKind::kDense, .alpha = 1.0};
  EXPECT_EQ(DecideSyncMethod(dense, options), SyncMethod::kArAllReduce);
  VariableSparsity sparse_low{.kind = GradKind::kSparse, .alpha = 0.05};
  EXPECT_EQ(DecideSyncMethod(sparse_low, options), SyncMethod::kPs);
  // The alpha-close-to-1 escape hatch (end of section 3.1).
  VariableSparsity sparse_high{.kind = GradKind::kSparse, .alpha = 0.95};
  EXPECT_EQ(DecideSyncMethod(sparse_high, options), SyncMethod::kArAllReduce);
}

TEST(AnalysisTest, AssignmentHonorsPartitionerScope) {
  WordLmModel model({.vocab_size = 60, .embedding_dim = 6, .hidden_dim = 8,
                     .batch_per_rank = 16, .seed = 304});
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  Rng rng(34);
  std::vector<StepResult> samples;
  for (const FeedMap& feeds : model.TrainShards(2, rng)) {
    samples.push_back(executor.RunStep(store, feeds, model.loss()));
  }
  auto info = AnalyzeSparsity(*model.graph(), model.loss(), samples);
  std::vector<VariableSync> assignment =
      AssignGraphVariables(*model.graph(), info, HybridOptions{},
                           PartitionPlan::Uniform(8));
  const auto& vars = model.graph()->variables();
  for (size_t v = 0; v < vars.size(); ++v) {
    if (vars[v].partitioner_scope) {
      EXPECT_EQ(assignment[v].method, SyncMethod::kPs);
      EXPECT_EQ(assignment[v].partitions, 8) << vars[v].name;
    } else if (assignment[v].method == SyncMethod::kPs) {
      EXPECT_EQ(assignment[v].partitions, 1) << vars[v].name;
    }
  }
}

TEST(AnalysisTest, PartitionCountClampedToRows) {
  // A 5-row variable cannot be split 8 ways.
  Graph graph;
  Rng rng(35);
  NodeId ids = graph.Placeholder("ids", DataType::kInt64);
  NodeId labels = graph.Placeholder("labels", DataType::kInt64);
  NodeId emb;
  {
    PartitionerScope scope(graph);
    emb = graph.Variable("tiny", RandomNormal(TensorShape({5, 4}), rng));
  }
  NodeId loss = graph.SoftmaxXentMean(graph.Gather(emb, ids), labels);
  Executor executor(&graph);
  VariableStore store = VariableStore::InitFrom(graph);
  FeedMap feeds;
  feeds[ids] = Tensor::FromIndices({0, 1}, TensorShape({2}));
  feeds[labels] = Tensor::FromIndices({1, 3}, TensorShape({2}));
  std::vector<StepResult> samples = {executor.RunStep(store, feeds, loss)};
  auto info = AnalyzeSparsity(graph, loss, samples);
  std::vector<VariableSync> assignment =
      AssignGraphVariables(graph, info, HybridOptions{}, PartitionPlan::Uniform(8));
  EXPECT_EQ(assignment[0].partitions, 5);
}

}  // namespace
}  // namespace parallax
