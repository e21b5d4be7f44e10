// Multi-tenant planning throughput: N training sessions starting concurrently, each
// needing a partition plan for its (model, resources, options) key. Compares
//  - private:  every session runs its own SearchPlan on a private arena (the
//              pre-service status quo — per-tenant cost is the full search), vs
//  - shared:   every session routes through one PlannerService, so a key searched
//              before is answered by its finished search, and concurrent duplicates
//              wait on the one running search.
// Tenants draw from a realistic mixture: a handful of model shapes times a spread of
// measured alphas that quantize into a few buckets — exactly the regime the service is
// built for (many tenants, few distinct planning problems). Reports plans/sec for both
// modes, the speedup, the cache hit rate, and per-call p50/p99 latency.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/iteration_sim.h"
#include "src/service/planner_service.h"

namespace parallax {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One tenant's planning problem. `shape` picks the model family (embedding/softmax
// sizes); `alpha` is its measured embedding sparsity. Alphas are drawn from a spread
// that the service's default quantum (0.05) folds into a few buckets.
PlannerQuery TenantQuery(int shape, double alpha) {
  const int64_t scale = 1 + shape;  // 4 model families
  PlannerQuery query;
  VariableSync embedding;
  embedding.spec = {"embedding", 400'000 * scale, 64, true, alpha};
  embedding.method = SyncMethod::kPs;
  query.variables.push_back({embedding, true, 6'250 * scale});
  VariableSync softmax;
  softmax.spec = {"softmax", 200'000 * scale, 64, true, alpha * 2.5};
  softmax.method = SyncMethod::kPs;
  query.variables.push_back({softmax, true, 3'125 * scale});
  VariableSync dense;
  dense.spec = {"dense", 600'000, 1, false, 1.0};
  dense.method = SyncMethod::kArAllReduce;
  query.variables.push_back({dense, false, 1});

  query.mode = PartitionSearchMode::kPerVariable;

  query.cluster.num_machines = 4;
  query.cluster.gpus_per_machine = 2;
  query.sim_config.ps_local_aggregation = true;
  query.sim_config.ps_machine_level_pulls = true;
  query.gpu_compute_seconds = 4e-3;
  query.compute_chunks = 4;
  query.options.initial_partitions = 4;
  return query;
}

std::vector<PlannerQuery> TenantMix(int sessions) {
  // Alphas cluster around a few operating points with per-tenant measurement noise —
  // quantization folds each cluster into one bucket.
  const double base[] = {0.01, 0.02, 0.05, 0.13};
  std::vector<PlannerQuery> queries;
  queries.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    const int shape = s % 4;
    const double noise = 1.0 + 0.002 * (s % 5 - 2);  // +/-0.4% measurement jitter
    queries.push_back(TenantQuery(shape, base[(s / 4) % 4] * noise));
  }
  return queries;
}

struct ModeResult {
  double wall_seconds = 0.0;
  std::vector<double> latencies;  // per-plan call, seconds
};

// Runs one plan call per session across a fixed-size worker pool (sessions are
// independent tenants; the pool mirrors how many can actually run concurrently).
ModeResult RunSessions(const std::vector<PlannerQuery>& queries,
                       const std::function<void(const PlannerQuery&)>& plan_one) {
  ModeResult result;
  result.latencies.assign(queries.size(), 0.0);
  const unsigned pool = std::max(4u, std::thread::hardware_concurrency());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(pool);
  for (unsigned w = 0; w < pool; ++w) {
    workers.emplace_back([&] {
      for (size_t index = next.fetch_add(1); index < queries.size();
           index = next.fetch_add(1)) {
        const Clock::time_point call = Clock::now();
        plan_one(queries[index]);
        result.latencies[index] = SecondsSince(call);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  result.wall_seconds = SecondsSince(start);
  return result;
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[index];
}

void Run() {
  PrintHeading("Multi-tenant planning: private per-session search vs shared PlannerService");
  const int kSessions = 120;
  const std::vector<PlannerQuery> queries = TenantMix(kSessions);

  // Private baseline: each session runs the runner's own search (SearchPlan, serial)
  // on its own arena, no sharing anywhere.
  PlannerService oracle;  // used only to canonicalize, so both modes solve the same keys
  ModeResult priv = RunSessions(queries, [&](const PlannerQuery& query) {
    PlannerQuery canonical = query;
    oracle.Canonicalize(&canonical);
    SimulationArena arena;
    SearchPlan(canonical, &arena);
  });

  PlannerService service;
  ModeResult shared = RunSessions(
      queries, [&](const PlannerQuery& query) { service.Plan(query).value(); });

  const double private_rate = static_cast<double>(kSessions) / priv.wall_seconds;
  const double shared_rate = static_cast<double>(kSessions) / shared.wall_seconds;
  const PlannerServiceStats stats = service.stats();
  const double hit_rate =
      static_cast<double>(stats.cache.hits + stats.coalesced) /
      static_cast<double>(stats.queries);

  PrintRow({"mode", "plans/sec", "wall ms", "p50 ms", "p99 ms"});
  PrintRule(5);
  PrintRow({"private", StrFormat("%.0f", private_rate),
            StrFormat("%.1f", priv.wall_seconds * 1e3),
            StrFormat("%.2f", Percentile(priv.latencies, 0.50) * 1e3),
            StrFormat("%.2f", Percentile(priv.latencies, 0.99) * 1e3)});
  PrintRow({"shared", StrFormat("%.0f", shared_rate),
            StrFormat("%.1f", shared.wall_seconds * 1e3),
            StrFormat("%.2f", Percentile(shared.latencies, 0.50) * 1e3),
            StrFormat("%.2f", Percentile(shared.latencies, 0.99) * 1e3)});
  std::printf("  sessions %d, distinct keys searched %llu, cache hit+coalesce rate %.1f%%\n",
              kSessions, static_cast<unsigned long long>(stats.searches),
              hit_rate * 100.0);
  std::printf("  speedup: %.1fx plans/sec (shared vs private)%s\n",
              shared_rate / private_rate,
              shared_rate / private_rate >= 5.0 ? "  [meets >=5x target]" : "");
}

}  // namespace
}  // namespace parallax

int main() {
  parallax::Run();
  return 0;
}
