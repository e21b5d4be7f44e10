// Adaptive re-partitioning, end to end (docs/adaptivity.md): a word LM whose active
// vocabulary jumps mid-training (vocabulary warm-up — the canonical alpha drift). The
// runner measures each sparse variable's alpha from the nnz its aggregation path
// observes, detects the drift, re-runs the partition search against the *measured*
// workload, and swaps the partition count mid-training when the simulated iteration
// time improves — all without touching the numerics.
#include <cstdio>

#include "src/core/api.h"
#include "src/models/trainable.h"

using namespace parallax;

int main() {
  constexpr int kDriftStep = 30;
  // 2% of the vocabulary active at first (warm-up), everything from kDriftStep on.
  WordLmModel model({.vocab_size = 250,
                     .embedding_dim = 512,
                     .hidden_dim = 16,
                     .batch_per_rank = 64,
                     .zipf_exponent = 0.05,
                     .seed = 7,
                     .active_vocab_fraction =
                         AlphaSchedule::StepChange(kDriftStep, 0.02, 1.0)});

  // Accumulation-dominated server costs (the paper's LM regime): iterating touched
  // rows is the dominant serial cost, so the optimal P moves when alpha does.
  SyncCostParams costs;
  costs.sparse_agg_seconds_per_element = 100e-9;
  costs.sparse_update_seconds_per_element = 20e-9;
  costs.sparse_flush_seconds_per_element = 2e-9;

  AdaptivePartitioningPolicy policy;
  policy.ewma_decay = 0.5;
  policy.drift_threshold = 0.3;
  policy.hysteresis = 0.02;
  policy.warmup_steps = 4;
  policy.check_interval = 4;
  policy.cooldown_steps = 20;

  auto runner_or = RunnerBuilder(model.graph(), model.loss())
                       .WithResources("m0:0,1;m1:0,1")
                       .WithLearningRate(0.3f)
                       .WithSyncCosts(costs)
                       .WithCompute(2e-3, 4)
                       .WithAdaptivePartitioning(policy)
                       .Build();
  if (!runner_or.ok()) {
    std::fprintf(stderr, "Build failed: %s\n", runner_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<GraphRunner>& runner = runner_or.value();

  Rng data_rng(123);
  for (int step = 0; step < 60; ++step) {
    float loss = runner->Step(model.TrainShards(runner->num_ranks(), data_rng, step));
    if ((step + 1) % 10 == 0) {
      std::printf("step %3d  loss %.3f  %-5s simulated %.3f s%s\n", step + 1, loss,
                  runner->partition_plan().ToString().c_str(), runner->simulated_seconds(),
                  step + 1 == kDriftStep ? "   <- vocabulary opens up here" : "");
    }
  }

  // The decision trail: what was measured, what was decided.
  const SparsityMonitor* monitor = runner->sparsity_monitor();
  std::printf("\nadaptive repartitions: %d\n", runner->adaptive_repartitions());
  for (const AdaptationVerdict& verdict : monitor->trail()) {
    std::printf("  step %3lld: drift %.2f on variable %d (measured alpha %.4f), "
                "plan %s, best candidate %s (%.2f ms vs %.2f ms current)  [%s]\n",
                static_cast<long long>(verdict.step), verdict.drift, verdict.variable,
                verdict.measured_alpha, verdict.from_plan.ToString().c_str(),
                verdict.best_plan.ToString().c_str(), verdict.best_seconds * 1e3,
                verdict.current_seconds * 1e3,
                verdict.adopted ? ("adopted -> " + verdict.to_plan.ToString()).c_str()
                                : "kept");
  }
  for (int v : monitor->tracked()) {
    std::printf("  variable %d (%s): measured alpha %.4f\n", v,
                model.graph()->variables()[static_cast<size_t>(v)].name.c_str(),
                monitor->measured_alpha(v));
  }
  return 0;
}
