// Elastic membership and crash recovery, end to end (docs/elasticity.md): a 2-machine
// word-LM run checkpoints every 4 steps, loses a worker mid-run (the runner is simply
// destroyed with unsaved progress), recovers on a fresh runner via RestoreFrom with a
// replay bounded by the checkpoint interval, then grows to 4 machines and shrinks back
// to 2 with GraphRunner::Rescale — each membership change migrating shards
// value-preservingly and re-searching the partition/placement plan on the new cluster.
// Exits non-zero if the replay exceeds the interval or a rescale adopts a plan worse
// than the incumbent measured on the new cluster (the best-of guarantee).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/models/trainable.h"

using namespace parallax;

int main() {
  constexpr int kInterval = 4;    // checkpoint cadence (steps)
  constexpr int kDeathStep = 6;   // worker dies 2 steps after the checkpoint at step 4
  constexpr int kPhase1Steps = 8; // 2-machine phase length
  WordLmModel model({.vocab_size = 2000,
                     .embedding_dim = 32,
                     .hidden_dim = 16,
                     .batch_per_rank = 32,
                     .seed = 77});
  const std::string ckpt = "/tmp/parallax_elastic_rescale.px";

  // Pre-generate the 2-machine feed log so the recovered run replays the exact
  // sample sequence the dead run saw (Rng is stateful).
  Rng feed_rng(78);
  std::vector<std::vector<FeedMap>> feed_log;
  feed_log.reserve(kPhase1Steps);
  for (int i = 0; i < kPhase1Steps; ++i) {
    feed_log.push_back(model.TrainShards(2, feed_rng));
  }

  auto build = [&]() -> std::unique_ptr<GraphRunner> {
    auto runner_or = RunnerBuilder(model.graph(), model.loss())
                         .WithResources(ResourceSpec::Homogeneous(2, 1))
                         .WithLearningRate(0.4f)
                         .WithSearch({})
                         .WithCheckpoint(ckpt, kInterval)
                         .Build();
    if (!runner_or.ok()) {
      std::fprintf(stderr, "Build failed: %s\n", runner_or.status().ToString().c_str());
      return nullptr;
    }
    return std::move(runner_or).value();
  };

  // Phase 1: a doomed run. The worker dies at step 6; steps 5-6 were never saved.
  {
    std::unique_ptr<GraphRunner> doomed = build();
    if (doomed == nullptr) return 1;
    for (int i = 0; i < kDeathStep; ++i) {
      doomed->Step(feed_log[static_cast<size_t>(i)]);
    }
    std::printf("worker died at step %d (last checkpoint: step %lld)\n", kDeathStep,
                static_cast<long long>(doomed->last_checkpoint_step()));
  }

  // Phase 2: recovery. A fresh runner restores the last checkpoint and replays the
  // feed log from there; the replay to the death point is at most one interval.
  std::unique_ptr<GraphRunner> runner = build();
  if (runner == nullptr) return 1;
  Status restored = runner->RestoreFrom(ckpt);
  if (!restored.ok()) {
    std::fprintf(stderr, "RestoreFrom failed: %s\n", restored.ToString().c_str());
    return 1;
  }
  const int restart = static_cast<int>(runner->last_checkpoint_step());
  const int replayed = kDeathStep - restart;
  const bool bounded = replayed >= 0 && replayed <= kInterval;
  std::printf("recovered from step %d, replaying %d steps to reach the death point\n",
              restart, replayed);
  std::printf("replay bounded by checkpoint interval: %s\n", bounded ? "yes" : "no");
  for (int i = restart; i < kPhase1Steps; ++i) {
    float loss = runner->Step(feed_log[static_cast<size_t>(i)]);
    std::printf("step %2d  loss %.3f  machines 2  simulated %.3f s\n", i + 1, loss,
                runner->simulated_seconds());
  }

  // Phase 3: the cluster grows. Rescale migrates shards onto the 4-machine cluster
  // and re-searches the plan; the adopted layout is never worse than the incumbent
  // measured on the new cluster.
  Rng live_rng(79);
  bool best_of = true;
  auto rescale_to = [&](int machines) -> bool {
    Status status = runner->Rescale(ResourceSpec::Homogeneous(machines, 1));
    if (!status.ok()) {
      std::fprintf(stderr, "Rescale failed: %s\n", status.ToString().c_str());
      return false;
    }
    const RescaleEvent& event = runner->rescale_trail().back();
    const bool improved = event.adopted_seconds <= event.incumbent_seconds;
    best_of = best_of && improved;
    std::printf("rescale %d -> %d machines at step %lld: migration %.3f ms, "
                "adopted %.3f ms vs incumbent %.3f ms\n",
                event.from_machines, event.to_machines,
                static_cast<long long>(event.step), event.migration_seconds * 1e3,
                event.adopted_seconds * 1e3, event.incumbent_seconds * 1e3);
    std::printf("post-rescale plan beats or ties incumbent: %s\n",
                improved ? "yes" : "no");
    return true;
  };
  if (!rescale_to(4)) return 1;
  for (int i = 0; i < 4; ++i) {
    float loss = runner->Step(model.TrainShards(runner->num_ranks(), live_rng));
    std::printf("step %2lld  loss %.3f  machines 4  simulated %.3f s\n",
                static_cast<long long>(runner->iterations()), loss,
                runner->simulated_seconds());
  }

  // Phase 4: the cluster shrinks back. Same contract in the other direction.
  if (!rescale_to(2)) return 1;
  for (int i = 0; i < 4; ++i) {
    float loss = runner->Step(model.TrainShards(runner->num_ranks(), live_rng));
    std::printf("step %2lld  loss %.3f  machines 2  simulated %.3f s\n",
                static_cast<long long>(runner->iterations()), loss,
                runner->simulated_seconds());
  }

  std::printf("\nrescale trail: %d membership changes, %d checkpoints written\n",
              runner->rescales(), runner->checkpoints_written());
  std::remove(ckpt.c_str());
  if (!bounded || !best_of) return 1;
  return 0;
}
