// Multi-tenant training with a shared PlannerService: eight independent sessions start
// concurrently on their own threads, each building its own GraphRunner, and all route
// their startup partition search through ONE process-wide planner
// (RunnerBuilder::WithPlanner). Sessions come in pairs with identical model shapes, so
// only half the planning problems are distinct: the first tenant at each key pays for
// the simulation search, the rest are answered from the plan cache (or coalesce onto
// the in-flight search if they arrive while it runs) — and every tenant adopts the
// byte-identical plan the private search would have found.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/api.h"
#include "src/data/dataset.h"
#include "src/models/trainable.h"
#include "src/service/planner_service.h"

using namespace parallax;

namespace {

// Four model families; tenants 2k and 2k+1 share family k (same planning key).
WordLmModel::Options TenantModel(int tenant) {
  const int family = tenant / 2;
  return {.vocab_size = 400 + 100 * family,
          .embedding_dim = 16 + 4 * family,
          .hidden_dim = 24,
          .batch_per_rank = 32,
          .seed = 7};  // same seed within a family: identical graphs, identical keys
}

struct Tenant {
  std::string plan;
  float final_loss = 0.0f;
};

}  // namespace

int main() {
  const int kTenants = 8;
  auto planner = std::make_shared<PlannerService>();

  std::vector<Tenant> tenants(kTenants);
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([t, planner, &tenants] {
      WordLmModel model(TenantModel(t));
      PartitionSearchOptions search;
      auto runner_or = RunnerBuilder(model.graph(), model.loss())
                           .WithResources("node-a:0,1;node-b:0,1")
                           .WithSearchMode(PartitionSearchMode::kPerVariable)
                           .WithSearch(search)
                           .WithPlanner(planner)
                           .WithLearningRate(0.5f)
                           .Build();
      if (!runner_or.ok()) {
        std::fprintf(stderr, "tenant %d: Build failed: %s\n", t,
                     runner_or.status().ToString().c_str());
        return;
      }
      std::unique_ptr<GraphRunner>& runner = runner_or.value();
      // Same data stream within a family: the two tenants are the same job submitted
      // twice, so their measured alphas — and planning keys — match exactly.
      Rng data_rng(100 + t / 2);
      float loss = 0.0f;
      for (int iteration = 0; iteration < 20; ++iteration) {
        loss = runner->Step(model.TrainShards(runner->num_ranks(), data_rng));
      }
      tenants[static_cast<size_t>(t)].plan = runner->partition_plan().ToString();
      tenants[static_cast<size_t>(t)].final_loss = loss;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  bool pairs_identical = true;
  for (int t = 0; t < kTenants; ++t) {
    std::printf("tenant %d  plan %-40s final loss %.3f\n", t,
                tenants[static_cast<size_t>(t)].plan.c_str(),
                tenants[static_cast<size_t>(t)].final_loss);
    if (t % 2 == 1 &&
        tenants[static_cast<size_t>(t)].plan != tenants[static_cast<size_t>(t - 1)].plan) {
      pairs_identical = false;
    }
  }

  const PlannerServiceStats stats = planner->stats();
  const double hit_rate =
      stats.queries == 0
          ? 0.0
          : static_cast<double>(stats.cache.hits + stats.coalesced) /
                static_cast<double>(stats.queries);
  std::printf("\nshared planner: %llu queries, %llu searches, cache hit rate %.1f%%\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.searches), hit_rate * 100.0);
  std::printf("paired tenants adopted identical plans: %s\n",
              pairs_identical ? "yes" : "no");

  // Exit non-zero if sharing failed (CI greps the lines above and checks this).
  const bool shared_something = stats.searches < stats.queries;
  return pairs_identical && shared_something ? 0 : 1;
}
