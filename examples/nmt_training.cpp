// Distributed training of the NMT surrogate — the scenario of the paper's Figure 3
// code listing: a translation model with partitioner-scoped encoder/decoder embeddings,
// trained on a multi-machine GPU cluster through the Parallax API.
//
// Demonstrates:
//  - sparse/dense variable mix detection (emb_enc / emb_dec / emb_out get IndexedSlices
//    gradients; the hidden weights get dense ones),
//  - the automatic partition search over the simulated cluster,
//  - inspection of the transformed distributed graph (placement rules of section 4.3),
//  - quality tracking (token accuracy, the repo's BLEU stand-in) against simulated time.
#include <cstdio>

#include "src/core/api.h"
#include "src/models/trainable.h"

using namespace parallax;

int main() {
  NmtSurrogateModel model({.vocab_size = 500,
                           .embedding_dim = 20,
                           .hidden_dim = 32,
                           .batch_per_rank = 32,
                           .seed = 11});

  // The paper's 3-call API, kept as a compatibility shim over RunnerBuilder (see
  // quickstart.cpp for the builder form).
  ParallaxConfig config;
  config.learning_rate = 0.5f;
  auto runner_or =
      GetRunner(model.graph(), model.loss(), "m0:0,1,2;m1:0,1,2", config);
  if (!runner_or.ok()) {
    std::fprintf(stderr, "GetRunner failed: %s\n", runner_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<GraphRunner>& runner = runner_or.value();

  Rng data_rng(321);
  for (int iteration = 1; iteration <= 80; ++iteration) {
    float loss = runner->Step(model.TrainShards(runner->num_ranks(), data_rng));
    if (iteration % 20 == 0) {
      Rng eval_rng(5);
      double accuracy = model.EvalTokenAccuracy(runner->WorkerView(), 2, eval_rng);
      std::printf("iter %3d  loss %.3f  token accuracy %.3f  simulated %.3f s\n",
                  iteration, loss, accuracy, runner->simulated_seconds());
    }
  }

  // Inspect the transformation (section 4.3's rules, as inspectable structure).
  const DistributedGraph& dist = runner->distributed_graph();
  std::printf("\ntransformation summary (%d machines x %d GPUs):\n", dist.num_machines,
              dist.gpus_per_machine);
  auto count = [&](DistOpRole role) { return dist.OpsWithRole(role).size(); };
  std::printf("  model replicas:    %zu (one per GPU)\n", count(DistOpRole::kModelReplica));
  std::printf("  variable pieces:   %zu (PS shards, round-robin over servers)\n",
              count(DistOpRole::kVariablePiece));
  std::printf("  update ops:        %zu (colocated with their piece)\n",
              count(DistOpRole::kUpdate));
  std::printf("  local agg ops:     %zu (one per machine per sparse variable)\n",
              count(DistOpRole::kLocalAgg));
  std::printf("  AllReduce ops:     %zu (dense variables, one per replica)\n",
              count(DistOpRole::kAllReduce));
  std::printf("  chief triggers:    %zu (exactly one worker drives updates)\n",
              count(DistOpRole::kChiefTrigger));
  if (runner->partition_search().has_value()) {
    const PartitionSearchResult& search = *runner->partition_search();
    std::printf("  partition search:  P=%d from %zu sampling runs (Eq. 1 fit: theta0=%.4f"
                " theta1=%.4f theta2=%.6f)\n",
                search.best_partitions, search.samples.size(), search.fit.theta0,
                search.fit.theta1, search.fit.theta2);
  }
  return 0;
}
