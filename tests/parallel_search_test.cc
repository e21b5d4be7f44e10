// Parallelism across planning queries and the seams it rests on:
//  - PlannerService::PlanMany fans distinct queries out over the service's pool, and
//    every answer is bit-identical to the serial search (SearchPlan on a fresh private
//    arena) at 1, 2 and 4 lanes: plan, seconds, uniform seconds and evaluations,
//  - a pooled service answers a single Plan bit-identically to a one-lane service and
//    to the private-arena oracle, and its speculation counters stay 0,
//  - ArenaPool checkout/return and a warmed leased-arena simulation iteration perform
//    zero heap allocations — the steady-state cost of one query's search,
//  - nested ParallelFor on one pool runs inline (no deadlock, right answer), and a
//    blocked batch never gates another submitter — the seams PlanMany's fan-out and
//    in-flight coalescing rely on,
//  - DefaultWorkerCount applies the hardware_concurrency()==0 fallback and the cap.
//
// Allocations are counted through tests/alloc_counter.h; the counters are only inspected
// inside explicit single-threaded windows.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/service/planner_service.h"
#include "src/sim/arena_pool.h"
#include "src/sim/cluster.h"
#include "tests/alloc_counter.h"

namespace parallax {
namespace {

// ---- Word-LM-shaped hybrid workload ---------------------------------------------------
// One heavy low-alpha embedding and one small hot "wide" variable on PS, over dense AR
// ballast and a sparse AllGatherv softmax.

IterationSimConfig HybridSimConfig() {
  IterationSimConfig config;
  config.ps_local_aggregation = true;
  config.ps_machine_level_pulls = true;
  config.gatherv_algorithm = GathervAlgorithm::kRing;
  return config;
}

std::vector<VariableSync> HybridPlanVariables(const PartitionPlan& plan) {
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

// ---- Steady-state allocations --------------------------------------------------------

TEST(ParallelSearchTest, WarmArenaCheckoutAndSimulationAreAllocationFree) {
  ArenaPool arenas;
  const ClusterSpec spec = ClusterSpec::Paper();
  Cluster cluster(spec);
  SimTime t = 0.0;
  {
    ArenaPool::Lease lease = arenas.Acquire();  // grows the pool: allocates
    IterationSimulator sim(spec, HybridPlanVariables(PartitionPlan::Uniform(16)),
                           4e-3, 4, HybridSimConfig(), lease.get());
    t = sim.SimulateIteration(cluster, t);
    t = sim.SimulateIteration(cluster, t);  // warm: task storage + schedule cache built

    const size_t before = AllocCount();
    t = sim.SimulateIteration(cluster, t);
    EXPECT_EQ(AllocCount() - before, 0u)
        << "warmed leased-arena simulation iteration allocated";
  }  // release pools the arena (and reserves the free-list slot)

  const size_t before = AllocCount();
  {
    ArenaPool::Lease lease = arenas.Acquire();  // pops the pooled arena
    EXPECT_NE(lease.get(), nullptr);
  }  // returns it to the reserved slot
  EXPECT_EQ(AllocCount() - before, 0u) << "warm arena checkout/return allocated";
  EXPECT_EQ(arenas.pooled(), 1u);
  EXPECT_EQ(arenas.total(), 1u);
}

// ---- ThreadPool seams ----------------------------------------------------------------

TEST(ThreadPoolTest, NestedParallelForOnSamePoolRunsInline) {
  ThreadPool pool(3);
  constexpr int kOuter = 4;
  constexpr int kInner = 8;
  std::vector<int> values(kOuter * kInner, 0);
  pool.ParallelFor(kOuter, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // The nested call must run inline on this lane instead of deadlocking on the
      // pool's submission lock — the seam a step's replica fan-out relies on when its
      // sparse kernels run on the same pool.
      pool.ParallelFor(kInner, 1, [&](int64_t ib, int64_t ie) {
        for (int64_t j = ib; j < ie; ++j) {
          values[i * kInner + j] = static_cast<int>(i * kInner + j);
        }
      });
    }
  });
  for (int i = 0; i < kOuter * kInner; ++i) {
    ASSERT_EQ(values[i], i);
  }
}

// Regression for the PlanMany/Plan coalescing deadlock: a ParallelFor body that
// blocks waiting on work another thread can only finish via its own ParallelFor on
// the same pool. Submission must not serialize behind a running batch — the second
// submitter has to drain its own batch even with pool lanes occupied/blocked.
TEST(ThreadPoolTest, BlockedBatchDoesNotGateConcurrentSubmitters) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool outer_running = false;  // guarded by mu
  bool release = false;        // guarded by mu
  std::thread blocked([&] {
    pool.ParallelFor(2, 1, [&](int64_t begin, int64_t) {
      if (begin == 0) {
        std::unique_lock<std::mutex> lock(mu);
        outer_running = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      }
    });
  });
  {
    // Make sure the blocked batch is published and occupying a lane before the
    // second submission — the old design held the submission lock across execution
    // and would deadlock from here on.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outer_running; });
  }
  std::vector<int> out(8, 0);
  pool.ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out[i] = static_cast<int>(i) + 1;
    }
  });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], i + 1);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocked.join();
}

TEST(ThreadPoolTest, DefaultWorkerCountFallsBackAndClamps) {
  const int workers = DefaultWorkerCount();
  EXPECT_GE(workers, 1);  // hardware_concurrency()==0 must not produce 0 lanes
  EXPECT_LE(workers, 16);
  EXPECT_EQ(DefaultWorkerCount(1), 1);
  EXPECT_LE(DefaultWorkerCount(4), 4);
  EXPECT_GE(DefaultWorkerCount(4), 1);
}

// ---- PlannerService integration ------------------------------------------------------

ClusterSpec ServiceSpec() {
  ClusterSpec spec;
  spec.num_machines = 4;
  spec.gpus_per_machine = 2;
  spec.cores_per_machine = 4;
  spec.nic_bandwidth = 1e9;
  spec.nic_latency = 1e-6;
  spec.pcie_bandwidth = 4e9;
  spec.pcie_latency = 1e-6;
  return spec;
}

PlannerQuery ServiceQuery(double embedding_alpha) {
  PlannerQuery query;
  VariableSync embedding;
  embedding.spec = {"embedding", 640'000, 64, true, embedding_alpha};
  embedding.method = SyncMethod::kPs;
  query.variables.push_back({embedding, /*partitioned=*/true, /*rows=*/10'000});
  VariableSync dense;
  dense.spec = {"dense", 500'000, 1, false, 1.0};
  dense.method = SyncMethod::kArAllReduce;
  query.variables.push_back({dense, /*partitioned=*/false, /*rows=*/1});
  query.mode = PartitionSearchMode::kPerVariable;

  query.cluster = ServiceSpec();
  query.sim_config.ps_local_aggregation = true;
  query.sim_config.ps_machine_level_pulls = true;
  query.gpu_compute_seconds = 4e-3;
  query.compute_chunks = 4;
  query.options.initial_partitions = 4;
  return query;
}

TEST(ParallelSearchTest, PlannerServiceParallelPlanMatchesSerialServiceAndOracle) {
  PlannerServiceOptions parallel_options;
  parallel_options.max_workers = 4;
  PlannerService parallel_service(parallel_options);
  PlannerServiceOptions serial_options;
  serial_options.max_workers = 1;
  PlannerService serial_service(serial_options);

  PlannerQuery query = ServiceQuery(0.02);
  PlannerResult parallel = parallel_service.Plan(query).value();
  PlannerResult serial = serial_service.Plan(query).value();

  EXPECT_TRUE(parallel.search.plan == serial.search.plan);
  EXPECT_EQ(parallel.search.plan.ToString(), serial.search.plan.ToString());
  EXPECT_EQ(parallel.search.seconds, serial.search.seconds);
  EXPECT_EQ(parallel.search.uniform_seconds, serial.search.uniform_seconds);
  EXPECT_EQ(parallel.search.evaluations, serial.search.evaluations);

  // And both match the private-arena oracle on a fresh arena.
  PlannerQuery canonical = query;
  parallel_service.Canonicalize(&canonical);
  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    IterationSimulator sim(canonical.cluster,
                           ApplyPlanToVariables(canonical.variables, plan),
                           canonical.gpu_compute_seconds, canonical.compute_chunks,
                           canonical.sim_config, &arena);
    return sim.MeasureIterationSeconds();
  };
  PartitionPlanSearchResult oracle = SearchPartitionPlan(
      measure, SearchTargets(canonical), canonical.cluster, canonical.options);
  EXPECT_TRUE(parallel.search.plan == oracle.plan);
  EXPECT_EQ(parallel.search.seconds, oracle.seconds);
  EXPECT_EQ(parallel.search.evaluations, oracle.evaluations);

  // Every search is serial, so the speculation counters pxbench still reads stay 0 on
  // the pooled service too.
  PlannerServiceStats parallel_stats = parallel_service.stats();
  EXPECT_EQ(parallel_stats.batched_evaluations, 0u);
  EXPECT_EQ(parallel_stats.speculative_waste, 0u);
}

TEST(ParallelSearchTest, PlannerServicePlanManyMatchesPerQueryPlans) {
  std::vector<PlannerQuery> queries;
  for (double alpha : {0.02, 0.1, 0.3, 0.02}) {  // one duplicate key
    queries.push_back(ServiceQuery(alpha));
  }
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("max_workers=" + std::to_string(workers));
    PlannerServiceOptions options;
    options.max_workers = workers;
    PlannerService service(options);
    std::vector<PlannerResult> batched = service.PlanMany(queries).value();
    ASSERT_EQ(batched.size(), queries.size());

    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      // The serial search the service's miss runs, on a fresh private arena.
      PlannerQuery canonical = queries[i];
      service.Canonicalize(&canonical);
      SimulationArena arena;
      const PartitionPlanSearchResult serial = SearchPlan(canonical, &arena);
      EXPECT_TRUE(batched[i].search.plan == serial.plan);
      EXPECT_EQ(batched[i].search.plan.ToString(), serial.plan.ToString());
      EXPECT_EQ(batched[i].search.seconds, serial.seconds);
      EXPECT_EQ(batched[i].search.uniform_seconds, serial.uniform_seconds);
      EXPECT_EQ(batched[i].search.evaluations, serial.evaluations);
    }
    // The duplicate coalesced onto its representative's search.
    EXPECT_EQ(service.stats().searches, 3u);
  }
}

}  // namespace
}  // namespace parallax
