// Parallel partition search speedup harness (docs/perf.md "Parallel partition
// search"): runs the same per-variable search serially and with the batched candidate
// measure at 2/4/8 workers, verifies the adopted plan is bit-identical, and prints the
// median wall-clock speedup per worker count plus the speculation counters. The final
// line states whether the 4-worker speedup meets the >=1.5x target — meaningful only
// when the host actually has >= 4 cores, so the core count is printed alongside (CI
// gates its grep on it).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/thread_pool.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/core/parallel_measure.h"
#include "src/sim/arena_pool.h"
#include "src/sim/cluster.h"

namespace parallax {
namespace {

using Clock = std::chrono::steady_clock;

// The per-variable bench's workload: a heavy low-alpha embedding and a small hot
// "wide" variable over dense AR ballast and a sparse AllGatherv softmax.
std::vector<VariableSync> SearchVariables(const PartitionPlan& plan) {
  std::vector<VariableSync> vars;
  VariableSync embedding;
  embedding.spec = {"embedding", 8'000'000, 512, true, 0.02};
  embedding.method = SyncMethod::kPs;
  embedding.partitions = plan.For("embedding");
  vars.push_back(embedding);
  for (int i = 0; i < 4; ++i) {
    VariableSync dense;
    dense.spec = {"dense" + std::to_string(i), 2'000'000, 1, false, 1.0};
    dense.method = SyncMethod::kArAllReduce;
    vars.push_back(dense);
  }
  VariableSync softmax;
  softmax.spec = {"softmax", 4'000'000, 512, true, 0.05};
  softmax.method = SyncMethod::kArAllGatherv;
  vars.push_back(softmax);
  VariableSync wide;
  wide.spec = {"wide", 500'000, 256, true, 0.6};
  wide.method = SyncMethod::kPs;
  wide.partitions = plan.For("wide");
  vars.push_back(wide);
  return vars;
}

IterationSimConfig SimConfig() {
  IterationSimConfig config;
  config.ps_local_aggregation = true;
  config.ps_machine_level_pulls = true;
  config.gatherv_algorithm = GathervAlgorithm::kRing;
  return config;
}

PartitionSearchOptions SearchOptions() {
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 1024;
  return options;
}

std::vector<PartitionSearchVariable> SearchTargets() {
  return {{.name = "embedding", .alpha = 0.02, .num_elements = 8'000'000},
          {.name = "wide", .alpha = 0.6, .num_elements = 500'000}};
}

struct TimedSearch {
  double median_seconds = 0.0;
  PartitionPlanSearchResult result;
};

// Runs the search `reps` times (workers == 1: serial, no batch provider) and reports
// the median wall-clock.
TimedSearch RunSearch(int workers, int reps) {
  PartitionSearchOptions options = SearchOptions();
  ThreadPool pool(workers);
  options.concurrency = {&pool, 0};  // sizes the speculation waves
  ArenaPool arenas;
  ParallelMeasureSpec spec;
  spec.cluster = ClusterSpec::Paper();
  spec.apply_plan = [](const PartitionPlan& plan) { return SearchVariables(plan); };
  spec.gpu_compute_seconds = 4e-3;
  spec.compute_chunks = 4;
  spec.sim_config = SimConfig();
  const PlanBatchMeasure batch =
      MakeParallelPlanMeasure(std::move(spec), SearchConcurrency{&pool, 0}, &arenas);

  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    IterationSimulator sim(ClusterSpec::Paper(), SearchVariables(plan), 4e-3, 4,
                           SimConfig(), &arena);
    return sim.MeasureIterationSeconds();
  };

  TimedSearch timed;
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    timed.result = SearchPartitionPlan(measure, batch, SearchTargets(), options);
    seconds.push_back(std::chrono::duration<double>(Clock::now() - start).count());
  }
  std::sort(seconds.begin(), seconds.end());
  timed.median_seconds = seconds[seconds.size() / 2];
  return timed;
}

void Run() {
  const int cores = DefaultWorkerCount();
  PrintHeading("Parallel partition search: batched candidates + serial replay");
  const int kReps = 5;

  const TimedSearch serial = RunSearch(1, kReps);
  PrintRow({"workers", "median ms", "speedup", "batched evals", "spec waste"});
  PrintRule(5);
  PrintRow({"1 (serial)", StrFormat("%.1f", serial.median_seconds * 1e3), "1.00x",
            "0", "0"});

  double speedup_at_4 = 0.0;
  for (int workers : {2, 4, 8}) {
    const TimedSearch parallel = RunSearch(workers, kReps);
    // Bit-identity is the contract the whole design rests on; a mismatch here is a
    // bug, not a measurement artifact.
    if (!(parallel.result.plan == serial.result.plan) ||
        parallel.result.seconds != serial.result.seconds ||
        parallel.result.evaluations != serial.result.evaluations) {
      std::printf("ERROR: parallel result diverged from serial at %d workers\n",
                  workers);
      std::exit(1);
    }
    const double speedup = serial.median_seconds / parallel.median_seconds;
    if (workers == 4) {
      speedup_at_4 = speedup;
    }
    PrintRow({StrFormat("%d", workers),
              StrFormat("%.1f", parallel.median_seconds * 1e3),
              StrFormat("%.2fx", speedup),
              StrFormat("%d", parallel.result.batch.batched_evaluations),
              StrFormat("%d", parallel.result.batch.speculative_waste)});
  }

  std::printf("  plan %s adopted identically at every worker count\n",
              serial.result.plan.ToString().c_str());
  std::printf("parallel search speedup at 4 workers: %.2fx (%d cores)\n", speedup_at_4,
              cores);
  std::printf("meets >=1.5x target: %s (%d cores)\n",
              speedup_at_4 >= 1.5 ? "yes" : "no", cores);
}

}  // namespace
}  // namespace parallax

int main() {
  parallax::Run();
  return 0;
}
