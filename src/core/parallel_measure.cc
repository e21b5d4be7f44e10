#include "src/core/parallel_measure.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/base/logging.h"
#include "src/base/thread_pool.h"
#include "src/sim/arena_pool.h"

namespace parallax {

PlanBatchMeasure MakeParallelPlanMeasure(ParallelMeasureSpec spec,
                                         const SearchConcurrency& concurrency,
                                         ArenaPool* arenas) {
  if (concurrency.pool == nullptr || arenas == nullptr) {
    return PlanBatchMeasure();
  }
  // With at most one candidate in flight the serial measure path is strictly better:
  // it reuses the caller's warm arena and skips the pool round-trip.
  if (EffectiveSearchWorkers(concurrency, 2) <= 1) {
    return PlanBatchMeasure();
  }
  PX_CHECK(spec.apply_plan != nullptr);
  auto shared = std::make_shared<ParallelMeasureSpec>(std::move(spec));
  ThreadPool* pool = concurrency.pool;
  const int max_workers = concurrency.max_workers;
  return [shared, pool, max_workers,
          arenas](const std::vector<PartitionPlan>& plans) {
    std::vector<double> seconds(plans.size(), 0.0);
    if (plans.empty()) {
      return seconds;
    }
    const int workers =
        EffectiveSearchWorkers(SearchConcurrency{pool, max_workers}, plans.size());
    auto simulate_range = [&](int64_t begin, int64_t end) {
      ArenaPool::Lease lease = arenas->Acquire();
      for (int64_t i = begin; i < end; ++i) {
        std::vector<VariableSync> variables = shared->apply_plan(plans[i]);
        IterationSimulator simulator(shared->cluster, std::move(variables),
                                     shared->gpu_compute_seconds, shared->compute_chunks,
                                     shared->sim_config, lease.get());
        seconds[i] = simulator.MeasureIterationSeconds();
      }
    };
    if (workers <= 1) {
      simulate_range(0, static_cast<int64_t>(plans.size()));
      return seconds;
    }
    // grain = ceil(candidates / workers) bounds active lanes at `workers` (chunk
    // count never exceeds it) while keeping per-lane chunks contiguous — one arena
    // lease per lane, not per candidate.
    const int64_t total = static_cast<int64_t>(plans.size());
    const int64_t grain = (total + workers - 1) / workers;
    pool->ParallelFor(total, grain, simulate_range);
    return seconds;
  };
}

UniformBatchMeasure MakeUniformBatchMeasure(PlanBatchMeasure measure_batch) {
  if (!measure_batch) {
    return UniformBatchMeasure();
  }
  return [measure_batch = std::move(measure_batch)](const std::vector<int>& candidates) {
    std::vector<PartitionPlan> plans;
    plans.reserve(candidates.size());
    for (int p : candidates) {
      plans.push_back(PartitionPlan::Uniform(p));
    }
    return measure_batch(plans);
  };
}

}  // namespace parallax
