// Parallel candidate evaluation inside the partition searches (docs/perf.md
// "Parallel partition search"):
//  - SearchPartitionPlan with a batch measure adopts a plan BIT-IDENTICAL to the
//    serial search at every worker count — plan, placements, seconds, uniform trail,
//    fit thetas, rounds, evaluations, warm_started — across the uniform-seeded,
//    warm-started (drifted-subset), and placement-searched paths,
//  - the uniform SearchPartitions overload is likewise bit-identical (samples trail,
//    best P, fit, prediction),
//  - memo consistency: the batched provider returns, slot for slot, exactly what the
//    serial measure returns for the same candidate (simulated times are
//    arena-independent),
//  - speculation stats are reported on parallel searches and all-zero on serial ones,
//  - no speculative wave holds a candidate with more PS pieces than the candidate it
//    was built for (the batch's first), in every search phase and at 2/4/8 workers,
//    and a sweep on a landscape rising in P speculates only cheaper rungs, wasting none,
//  - ArenaPool checkout/return and a warmed leased-arena simulation iteration perform
//    zero heap allocations — the steady-state cost of one batched candidate,
//  - nested ParallelFor on one pool runs inline (no deadlock, right answer), which is
//    what lets PlanMany fan-out and intra-search batches share the service pool,
//  - DefaultWorkerCount applies the hardware_concurrency()==0 fallback and the cap,
//  - a PlannerService with workers answers bit-identically to a serial service and to
//    the private-arena oracle, and reports batched-evaluation stats.
//
// Allocation counting replaces global operator new/delete, nothrow forms included, for
// this binary; the counters are only inspected inside explicit single-threaded windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/core/parallel_measure.h"
#include "src/service/planner_service.h"
#include "src/sim/arena_pool.h"
#include "src/sim/cluster.h"

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

// GCC pairs the replaced operator new (malloc-backed) with the replaced operator
// delete (free-backed) across inlining and then warns about the very pairing these
// replacements establish; the combination is intentional.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

// The nothrow forms too: std::stable_sort's temporary buffer comes from them, and a
// block the library's default nothrow new allocated must not reach the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace parallax {
namespace {

size_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

// ---- Word-LM-shaped hybrid workload (the per-variable bench's scenario) --------------
// One heavy low-alpha embedding and one small hot "wide" variable, both searchable,
// over dense AR ballast and a sparse AllGatherv softmax.

std::vector<PartitionSearchVariable> HybridTargets() {
  return {{.name = "embedding", .alpha = 0.02, .num_elements = 8'000'000},
          {.name = "wide", .alpha = 0.6, .num_elements = 500'000}};
}

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

PartitionSearchOptions HybridOptions() {
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 256;
  return options;
}

double MeasureHybridPlan(const PartitionPlan& plan, SimulationArena* arena) {
  IterationSimulator sim(ClusterSpec::Paper(), HybridPlanVariables(plan), 4e-3, 4,
                         HybridSimConfig(), arena);
  return sim.MeasureIterationSeconds();
}

// Every batch a search issued, each as its candidates' PS piece counts (the searched
// variables' counts summed) in batch order: the first is the candidate the wave was
// built for.
using Waves = std::vector<std::vector<int>>;

// Wraps a batch measure so each call is appended to `waves`; null in, null out. A
// search issues its batches from its own thread, one at a time, so the recording needs
// no lock.
PlanBatchMeasure RecordWaves(PlanBatchMeasure batch,
                             std::vector<PartitionSearchVariable> targets, Waves* waves) {
  if (!batch) {
    return PlanBatchMeasure();
  }
  return [batch = std::move(batch), targets = std::move(targets),
          waves](const std::vector<PartitionPlan>& plans) {
    std::vector<int>& wave = waves->emplace_back();
    for (const PartitionPlan& plan : plans) {
      int pieces = 0;
      for (const PartitionSearchVariable& target : targets) {
        pieces += plan.For(target.name);
      }
      wave.push_back(pieces);
    }
    return batch(plans);
  };
}

// The wave admission rule: a speculative candidate costs at most the requested one, so
// with a lane per candidate a wave takes no longer than the requested candidate alone.
void ExpectWavesCostBounded(const Waves& waves) {
  ASSERT_FALSE(waves.empty());
  for (const std::vector<int>& wave : waves) {
    for (size_t i = 1; i < wave.size(); ++i) {
      EXPECT_LE(wave[i], wave.front()) << "candidate " << i << " of a wave";
    }
  }
}

// A ThreadPool + ArenaPool + the batch measure wired over them, the way the runner and
// the planner service wire theirs (src/core/parallel_measure.h). `batch` records every
// call in `waves`.
struct ParallelHarness {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ArenaPool> arenas;
  std::unique_ptr<Waves> waves;
  PlanBatchMeasure batch;
};

ParallelHarness MakeHybridHarness(int workers) {
  ParallelHarness h;
  h.pool = std::make_unique<ThreadPool>(workers);
  h.arenas = std::make_unique<ArenaPool>();
  ParallelMeasureSpec spec;
  spec.cluster = ClusterSpec::Paper();
  spec.apply_plan = [](const PartitionPlan& plan) { return HybridPlanVariables(plan); };
  spec.gpu_compute_seconds = 4e-3;
  spec.compute_chunks = 4;
  spec.sim_config = HybridSimConfig();
  h.waves = std::make_unique<Waves>();
  h.batch = RecordWaves(MakeParallelPlanMeasure(std::move(spec),
                                                SearchConcurrency{h.pool.get(), 0},
                                                h.arenas.get()),
                        HybridTargets(), h.waves.get());
  return h;
}

// Bit-for-bit equality of two search results — every field the serial search fills,
// down to the sweep trail and the fitted thetas. batch stats are deliberately NOT
// compared: they are the one thing the parallel path is allowed to change.
void ExpectResultsBitIdentical(const PartitionPlanSearchResult& got,
                               const PartitionPlanSearchResult& want) {
  EXPECT_TRUE(got.plan == want.plan);
  EXPECT_EQ(got.plan.ToString(), want.plan.ToString());
  EXPECT_EQ(got.plan.placements(), want.plan.placements());
  EXPECT_EQ(got.seconds, want.seconds);
  EXPECT_EQ(got.uniform_seconds, want.uniform_seconds);
  EXPECT_EQ(got.unplaced_seconds, want.unplaced_seconds);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.warm_started, want.warm_started);
  EXPECT_EQ(got.uniform.best_partitions, want.uniform.best_partitions);
  EXPECT_EQ(got.uniform.samples, want.uniform.samples);
  EXPECT_EQ(got.uniform.predicted_seconds, want.uniform.predicted_seconds);
  EXPECT_EQ(got.uniform.fit.ok, want.uniform.fit.ok);
  EXPECT_EQ(got.uniform.fit.theta0, want.uniform.fit.theta0);
  EXPECT_EQ(got.uniform.fit.theta1, want.uniform.fit.theta1);
  EXPECT_EQ(got.uniform.fit.theta2, want.uniform.fit.theta2);
  EXPECT_EQ(got.uniform.fit.rmse, want.uniform.fit.rmse);
}

TEST(ParallelSearchTest, PerVariableBitIdenticalAtEveryWorkerCount) {
  const PartitionSearchOptions options = HybridOptions();
  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    return MeasureHybridPlan(plan, &arena);
  };
  const PartitionPlanSearchResult serial =
      SearchPartitionPlan(measure, HybridTargets(), options);
  ASSERT_FALSE(serial.plan.uniform());
  EXPECT_EQ(serial.batch.batches, 0);
  EXPECT_EQ(serial.batch.batched_evaluations, 0);
  EXPECT_EQ(serial.batch.speculative_waste, 0);

  for (int workers : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ParallelHarness h = MakeHybridHarness(workers);
    SimulationArena serial_arena;  // the replay's own measure still needs one
    auto replay_measure = [&](const PartitionPlan& plan) {
      return MeasureHybridPlan(plan, &serial_arena);
    };
    PartitionSearchOptions batched_options = options;
    batched_options.concurrency = {h.pool.get(), 0};  // sizes the speculation waves
    PartitionPlanSearchResult parallel =
        SearchPartitionPlan(replay_measure, h.batch, HybridTargets(), batched_options);
    ExpectResultsBitIdentical(parallel, serial);
    if (workers >= 2) {
      // One lane buys no parallelism, so the provider is null below 2 workers; at 2+
      // the speculative batches must have run and been accounted.
      EXPECT_GT(parallel.batch.batches, 0);
      EXPECT_GT(parallel.batch.batched_evaluations, 0);
      EXPECT_GT(parallel.batch.max_batch_size, 0);
      EXPECT_GE(parallel.batch.speculative_waste, 0);
      EXPECT_LE(parallel.batch.speculative_waste, parallel.batch.batched_evaluations);
      ExpectWavesCostBounded(*h.waves);
    } else {
      EXPECT_EQ(parallel.batch.batches, 0);
    }
  }
}

TEST(ParallelSearchTest, WarmStartDriftedSubsetBitIdentical) {
  const PartitionSearchOptions options = HybridOptions();
  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    return MeasureHybridPlan(plan, &arena);
  };
  const PartitionPlanSearchResult cold =
      SearchPartitionPlan(measure, HybridTargets(), options);

  // The adaptive runner's re-search: previous counts from the adopted plan, only the
  // embedding's alpha drifted, warm start on.
  std::vector<PartitionSearchVariable> warm_targets = HybridTargets();
  for (PartitionSearchVariable& target : warm_targets) {
    target.previous_partitions = cold.plan.For(target.name);
    target.drifted = target.name == "embedding";
  }
  PartitionSearchOptions warm_options = options;
  warm_options.warm_start = true;

  const PartitionPlanSearchResult serial =
      SearchPartitionPlan(measure, warm_targets, warm_options);
  ASSERT_TRUE(serial.warm_started);

  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ParallelHarness h = MakeHybridHarness(workers);
    SimulationArena replay_arena;
    auto replay_measure = [&](const PartitionPlan& plan) {
      return MeasureHybridPlan(plan, &replay_arena);
    };
    PartitionSearchOptions batched_options = warm_options;
    batched_options.concurrency = {h.pool.get(), 0};
    PartitionPlanSearchResult parallel =
        SearchPartitionPlan(replay_measure, h.batch, warm_targets, batched_options);
    ExpectResultsBitIdentical(parallel, serial);
    ExpectWavesCostBounded(*h.waves);
  }
}

TEST(ParallelSearchTest, UniformSearchBitIdentical) {
  SimulationArena arena;
  auto measure_plan = [&](const PartitionPlan& plan) {
    return MeasureHybridPlan(plan, &arena);
  };
  auto measure = [&](int p) { return measure_plan(PartitionPlan::Uniform(p)); };
  const PartitionSearchOptions options = HybridOptions();
  const PartitionSearchResult serial = SearchPartitions(measure, options);

  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ParallelHarness h = MakeHybridHarness(workers);
    SimulationArena replay_arena;
    auto replay_plan = [&](const PartitionPlan& plan) {
      return MeasureHybridPlan(plan, &replay_arena);
    };
    auto replay = [&](int p) { return replay_plan(PartitionPlan::Uniform(p)); };
    PartitionSearchOptions batched_options = options;
    batched_options.concurrency = {h.pool.get(), 0};
    PartitionSearchResult parallel =
        SearchPartitions(replay, MakeUniformBatchMeasure(h.batch), batched_options);
    EXPECT_EQ(parallel.best_partitions, serial.best_partitions);
    EXPECT_EQ(parallel.samples, serial.samples);
    EXPECT_EQ(parallel.predicted_seconds, serial.predicted_seconds);
    EXPECT_EQ(parallel.fit.theta0, serial.fit.theta0);
    EXPECT_EQ(parallel.fit.theta1, serial.fit.theta1);
    EXPECT_EQ(parallel.fit.theta2, serial.fit.theta2);
    // Waves: every batch holds at most `workers` fresh rungs, every serial sample was
    // served from a wave, and waste is exactly the rungs the sweep never requested.
    EXPECT_GE(parallel.batch.batches, 1);
    EXPECT_LE(parallel.batch.max_batch_size, workers);
    EXPECT_GE(parallel.batch.batched_evaluations,
              static_cast<int>(serial.samples.size()));
    EXPECT_EQ(parallel.batch.speculative_waste,
              parallel.batch.batched_evaluations -
                  static_cast<int>(serial.samples.size()));
    ExpectWavesCostBounded(*h.waves);
  }
}

// The planner service's uniform sweep on a two-lane pool (the lm-pooled tenants'
// misses): from P = 4 on a landscape rising in P, the serial sweep samples 4, 8, 2, 1.
// Each wave pairs the requested rung with the next rung that costs no more, so the
// sweep runs two waves, {4,2} and {8,1}, and uses every candidate. Taking the next
// rungs whatever their cost would run {4,8}, {2,16} and {1,32}: six simulations, and
// the two costliest never used.
TEST(ParallelSearchTest, RisingSweepSpeculatesOnlyCheaperRungs) {
  auto measure = [](int p) { return 1e-3 * (1.0 + 0.01 * p); };
  PartitionSearchOptions options;
  options.initial_partitions = 4;
  options.min_partitions = 1;
  const PartitionSearchResult serial = SearchPartitions(measure, options);

  ThreadPool pool(2);
  options.concurrency = {&pool, 0};
  Waves waves;
  UniformBatchMeasure batch = [&](const std::vector<int>& candidates) {
    waves.push_back(candidates);
    std::vector<double> seconds;
    for (int p : candidates) {
      seconds.push_back(measure(p));
    }
    return seconds;
  };
  const PartitionSearchResult parallel = SearchPartitions(measure, batch, options);

  EXPECT_EQ(waves, (Waves{{4, 2}, {8, 1}}));
  EXPECT_EQ(parallel.batch.batched_evaluations, 4);
  EXPECT_EQ(parallel.batch.speculative_waste, 0);
  EXPECT_EQ(parallel.samples, serial.samples);
  EXPECT_EQ(parallel.best_partitions, serial.best_partitions);
}

// ---- Placement search on a racked topology (the 2-rack skewed-embedding demo) --------

ClusterSpec TwoRackSpec() {
  ClusterSpec spec;
  spec.num_machines = 4;
  spec.gpus_per_machine = 2;
  spec.cores_per_machine = 4;
  spec.nic_bandwidth = 1e9;
  spec.nic_latency = 1e-6;
  spec.pcie_bandwidth = 4e9;
  spec.pcie_latency = 1e-6;
  spec.topology.num_racks = 2;
  spec.topology.spine_bandwidth = 1e9;
  spec.topology.spine_latency = 5e-6;
  return spec;
}

std::vector<PartitionSearchVariable> TwoRackTargets() {
  return {{.name = "emb", .alpha = 0.3, .num_elements = 4'000'000, .max_partitions = 3},
          {.name = "softmax", .alpha = 0.5, .num_elements = 600'000, .max_partitions = 2}};
}

IterationSimConfig TwoRackSimConfig() {
  IterationSimConfig config;
  config.ps_local_aggregation = true;
  config.ps_machine_level_pulls = true;
  return config;
}

// The searched variables as PS shards, counts row-capped and placement applied when
// its length matches — identical in the serial measure and the batch measure's
// apply_plan, as the determinism contract requires.
std::vector<VariableSync> TwoRackPlanVariables(const PartitionPlan& plan) {
  std::vector<VariableSync> variables;
  for (const PartitionSearchVariable& searched : TwoRackTargets()) {
    VariableSync sync;
    sync.spec = {searched.name, searched.num_elements, 64, true, searched.alpha};
    sync.method = SyncMethod::kPs;
    sync.partitions = RowCappedPartitions(plan.For(searched.name), searched.max_partitions);
    const std::vector<int>* placement = plan.PlacementFor(searched.name);
    if (placement != nullptr &&
        static_cast<int>(placement->size()) == sync.partitions) {
      sync.placement = *placement;
    }
    variables.push_back(std::move(sync));
  }
  return variables;
}

double MeasureTwoRackPlan(const PartitionPlan& plan, SimulationArena* arena) {
  IterationSimulator sim(TwoRackSpec(), TwoRackPlanVariables(plan), 2e-3, 4,
                         TwoRackSimConfig(), arena);
  return sim.MeasureIterationSeconds();
}

PartitionSearchOptions TwoRackOptions() {
  PartitionSearchOptions options;
  options.initial_partitions = 4;
  options.max_partitions = 16;
  options.placement.enabled = true;
  options.placement.num_machines = 4;
  options.placement.num_racks = 2;
  options.placement.nic_bandwidth = 1e9;
  options.placement.spine_bandwidth = 1e9;
  return options;
}

TEST(ParallelSearchTest, PlacementSearchBitIdenticalOnRackedTopology) {
  const PartitionSearchOptions options = TwoRackOptions();
  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    return MeasureTwoRackPlan(plan, &arena);
  };
  const PartitionPlanSearchResult serial =
      SearchPartitionPlan(measure, TwoRackTargets(), options);
  // The scenario is built so a placement is adopted — otherwise this test would not
  // exercise the swap-trial speculation at all.
  ASSERT_FALSE(serial.plan.placements().empty()) << serial.plan.ToString();
  ASSERT_LT(serial.seconds, serial.unplaced_seconds);

  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto pool = std::make_unique<ThreadPool>(workers);
    ArenaPool arenas;
    ParallelMeasureSpec spec;
    spec.cluster = TwoRackSpec();
    spec.apply_plan = [](const PartitionPlan& plan) { return TwoRackPlanVariables(plan); };
    spec.gpu_compute_seconds = 2e-3;
    spec.compute_chunks = 4;
    spec.sim_config = TwoRackSimConfig();
    Waves waves;
    PlanBatchMeasure batch = RecordWaves(
        MakeParallelPlanMeasure(std::move(spec), SearchConcurrency{pool.get(), 0},
                                &arenas),
        TwoRackTargets(), &waves);
    ASSERT_TRUE(batch);

    SimulationArena replay_arena;
    auto replay_measure = [&](const PartitionPlan& plan) {
      return MeasureTwoRackPlan(plan, &replay_arena);
    };
    PartitionSearchOptions batched_options = options;
    batched_options.concurrency = {pool.get(), 0};
    PartitionPlanSearchResult parallel =
        SearchPartitionPlan(replay_measure, batch, TwoRackTargets(), batched_options);
    ExpectResultsBitIdentical(parallel, serial);
    EXPECT_GT(parallel.batch.batches, 0);
    ExpectWavesCostBounded(waves);
    // Swap trials keep the incumbent's counts, so equal-cost trials share a wave.
    EXPECT_TRUE(std::any_of(waves.begin(), waves.end(), [](const std::vector<int>& wave) {
      return wave.size() > 1 &&
             std::all_of(wave.begin(), wave.end(),
                         [&](int pieces) { return pieces == wave.front(); });
    }));
  }
}

// ---- Memo consistency ----------------------------------------------------------------

TEST(ParallelSearchTest, BatchedProviderMatchesSerialMeasureSlotForSlot) {
  std::vector<PartitionPlan> candidates;
  for (int p : {1, 2, 4, 8, 16, 32, 64}) {
    candidates.push_back(PartitionPlan::Uniform(p));
  }
  for (int emb : {4, 16, 64}) {
    for (int wide : {1, 2, 8}) {
      PartitionPlan plan;
      plan.Set("embedding", emb);
      plan.Set("wide", wide);
      candidates.push_back(plan);
    }
  }
  // A duplicate: same-plan slots must get the same (still correct) answer.
  candidates.push_back(PartitionPlan::Uniform(8));

  ParallelHarness h = MakeHybridHarness(4);
  ASSERT_TRUE(h.batch);
  std::vector<double> batched = h.batch(candidates);
  ASSERT_EQ(batched.size(), candidates.size());

  SimulationArena arena;
  for (size_t i = 0; i < candidates.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i) + ": " + candidates[i].ToString());
    EXPECT_EQ(batched[i], MeasureHybridPlan(candidates[i], &arena));
  }
}

TEST(ParallelSearchTest, EffectiveWorkersHonorsPoolCapAndCandidates) {
  EXPECT_EQ(EffectiveSearchWorkers(SearchConcurrency{}, 16), 1);
  ThreadPool pool(4);
  EXPECT_EQ(EffectiveSearchWorkers({&pool, 0}, 16), 4);
  EXPECT_EQ(EffectiveSearchWorkers({&pool, 2}, 16), 2);
  EXPECT_EQ(EffectiveSearchWorkers({&pool, 0}, 3), 3);
  EXPECT_EQ(EffectiveSearchWorkers({&pool, 0}, 0), 1);
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
      // pool's submission lock — the seam PlanMany's fan-out + intra-search batches
      // rely on.
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

  PartitionSearchVariable target;
  target.name = "embedding";
  target.alpha = embedding_alpha;
  target.num_elements = 640'000;
  target.max_partitions = 10'000;
  query.targets.push_back(target);

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

  EXPECT_TRUE(parallel.plan == serial.plan);
  EXPECT_EQ(parallel.plan.ToString(), serial.plan.ToString());
  EXPECT_EQ(parallel.seconds, serial.seconds);
  EXPECT_EQ(parallel.uniform_seconds, serial.uniform_seconds);
  EXPECT_EQ(parallel.evaluations, serial.evaluations);

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
  PartitionPlanSearchResult oracle =
      SearchPartitionPlan(measure, canonical.targets, canonical.options);
  EXPECT_TRUE(parallel.plan == oracle.plan);
  EXPECT_EQ(parallel.seconds, oracle.seconds);
  EXPECT_EQ(parallel.evaluations, oracle.evaluations);

  // Single Plan() misses get intra-search parallelism (not just PlanMany), and the
  // stats show it; the one-lane service stays entirely serial.
  PlannerServiceStats parallel_stats = parallel_service.stats();
  EXPECT_GT(parallel_stats.batched_evaluations, 0u);
  EXPECT_LE(parallel_stats.speculative_waste, parallel_stats.batched_evaluations);
  PlannerServiceStats serial_stats = serial_service.stats();
  EXPECT_EQ(serial_stats.batched_evaluations, 0u);
  EXPECT_EQ(serial_stats.speculative_waste, 0u);
}

TEST(ParallelSearchTest, PlannerServicePlanManyMatchesPerQueryPlans) {
  PlannerServiceOptions options;
  options.max_workers = 4;
  PlannerService service(options);

  std::vector<PlannerQuery> queries;
  for (double alpha : {0.02, 0.1, 0.3, 0.02}) {  // one duplicate key
    queries.push_back(ServiceQuery(alpha));
  }
  std::vector<PlannerResult> batched = service.PlanMany(queries).value();
  ASSERT_EQ(batched.size(), queries.size());

  PlannerService reference;  // defaults; answers must match regardless of its workers
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    PlannerResult single = reference.Plan(queries[i]).value();
    EXPECT_TRUE(batched[i].plan == single.plan);
    EXPECT_EQ(batched[i].seconds, single.seconds);
    EXPECT_EQ(batched[i].uniform_seconds, single.uniform_seconds);
  }
  // The duplicate coalesced onto its representative's search.
  EXPECT_EQ(service.stats().searches, 3u);
}

}  // namespace
}  // namespace parallax
