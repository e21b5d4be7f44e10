// Quickstart: train a model on a simulated multi-GPU cluster with the Parallax session
// API — the C++ rendition of the paper's Figure 3 workflow.
//
//   1. build a *single-GPU* graph (placeholders, variables, loss),
//   2. scope embedding variables under PartitionerScope  (parallax.partitioner()),
//   3. shard each global batch across the GPUs           (parallax.shard()),
//   4. RunnerBuilder(...).WithResources(...).Build()     (parallax.get_runner()),
//   5. call Step() per iteration.
//
// The runner classifies variables by gradient sparsity, auto-tunes the partition count,
// assigns each variable a SyncEngine (PS/AR per the hybrid rule — override per variable
// with WithEngine), transforms the graph, trains with real numerics, and advances a
// simulated cluster clock. The paper's 3-call GetRunner(graph, loss, resource_info,
// config) still works as a shim over this builder (see nmt_training.cpp).
#include <cstdio>

#include "src/base/strings.h"
#include "src/core/api.h"
#include "src/data/dataset.h"
#include "src/models/trainable.h"

using namespace parallax;

int main() {
  // A word-level language model: two vocabulary-sized (sparse) embeddings plus dense
  // hidden weights — the variable mix the paper's LM workload has.
  WordLmModel model({.vocab_size = 600,
                     .embedding_dim = 24,
                     .hidden_dim = 32,
                     .batch_per_rank = 32,
                     .seed = 7});

  // 2 machines x 2 GPUs, as a resource-info string ("hostname:gpu,gpu;...").
  // WithEngine routes variables to registered engines by name pattern; "ps"/"ar" are
  // what the hybrid rule would pick anyway — shown here as the override hook ("async_ps"
  // or any custom-registered strategy plugs in the same way).
  auto runner_or = RunnerBuilder(model.graph(), model.loss())
                       .WithResources("node-a:0,1;node-b:0,1")
                       .WithEngine("emb*", "ps")
                       .WithLearningRate(0.5f)
                       .Build();
  if (!runner_or.ok()) {
    std::fprintf(stderr, "Build failed: %s\n", runner_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<GraphRunner>& runner = runner_or.value();

  Rng data_rng(123);
  for (int iteration = 1; iteration <= 60; ++iteration) {
    // One fresh shard per GPU replica (parallax.shard semantics).
    float loss = runner->Step(model.TrainShards(runner->num_ranks(), data_rng));
    if (iteration % 10 == 0) {
      Rng eval_rng(99);
      double ppl = model.EvalPerplexity(runner->WorkerView(), 2, eval_rng);
      std::printf("iter %3d  loss %.3f  perplexity %8.1f  simulated time %.3f s\n",
                  iteration, loss, ppl, runner->simulated_seconds());
    }
  }

  // What Parallax decided for this graph:
  std::printf("\nchosen partition plan: %s\n", runner->partition_plan().ToString().c_str());
  for (size_t v = 0; v < runner->assignment().size(); ++v) {
    const VariableSync& sync = runner->assignment()[v];
    std::printf("  %-12s -> %s%s\n", sync.spec.name.c_str(),
                sync.method == SyncMethod::kPs ? "ParameterServer" : "AllReduce",
                sync.partitions > 1 ? StrFormat(" (%d partitions)", sync.partitions).c_str()
                                    : "");
  }
  std::printf("transformed graph has %zu distributed ops\n",
              runner->distributed_graph().ops.size());
  return 0;
}
