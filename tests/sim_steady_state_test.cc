// Steady-state guarantees of the simulation hot path:
//  - TaskGraph::Execute is repeatable and deterministic (identical makespans across
//    repeated runs on a reused graph),
//  - the Reset/rebuild/Execute cycle and SimulateIteration perform zero heap
//    allocations once warm (the property the partition search relies on),
//  - sharing a SimulationArena across simulators changes nothing about the results,
//  - the iteration barrier drains the cluster: back-to-back iterations run exactly as
//    on a fresh cluster from the same start, so MeasureIterationSeconds' one simulated
//    iteration prices a layout, across topologies, placements, PS options, collectives,
//    plans and compression (a later start's rounding can flip an exact tie; one case
//    pins that),
//  - a full training RunStep (forward + backward + escaping gradients, via
//    Executor::RunStepInto with recycled StepResult storage) is allocation-free once
//    warm — the numeric twin of the simulation guarantee.
//
// Allocations are counted through tests/alloc_counter.h; the counters are only inspected
// inside explicit windows, so gtest's own allocations don't matter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "src/base/rng.h"
#include "src/core/iteration_sim.h"
#include "src/graph/executor.h"
#include "src/models/trainable.h"
#include "tests/alloc_counter.h"

namespace parallax {
namespace {

ClusterSpec TinySpec() {
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

// A PS-shaped DAG: fan-out transfers plus serial accumulator chains.
void BuildPsShapedDag(TaskGraph& graph, int shards, int ranks) {
  for (int s = 0; s < shards; ++s) {
    TaskId acc = kNoTask;
    for (int r = 0; r < ranks; ++r) {
      int machine = r / 2;
      int server = s % 4;
      TaskId push = machine == server ? graph.AddLocalTransfer(machine, 100'000)
                                      : graph.AddTransfer(machine, server, 100'000);
      TaskId deps[2] = {push, acc};
      acc = graph.AddCpuWork(server, 1e-5,
                             std::span<const TaskId>(deps, acc == kNoTask ? 1u : 2u));
    }
  }
}

std::vector<VariableSync> HybridVariables(int partitions) {
  std::vector<VariableSync> vars;
  VariableSync embedding;
  embedding.spec = {"embedding", 1'000'000, 64, true, 0.02};
  embedding.method = SyncMethod::kPs;
  embedding.partitions = partitions;
  vars.push_back(embedding);
  VariableSync dense;
  dense.spec = {"dense", 500'000, 1, false, 1.0};
  dense.method = SyncMethod::kArAllReduce;
  vars.push_back(dense);
  VariableSync softmax;
  softmax.spec = {"softmax", 800'000, 64, true, 0.05};
  softmax.method = SyncMethod::kArAllGatherv;
  vars.push_back(softmax);
  return vars;
}

IterationSimConfig HybridSimConfig(GathervAlgorithm gatherv) {
  IterationSimConfig config;
  config.ps_local_aggregation = true;
  config.ps_machine_level_pulls = true;
  config.gatherv_algorithm = gatherv;
  return config;
}

TEST(TaskGraphSteadyStateTest, RepeatedExecuteIsDeterministic) {
  TaskGraph graph;
  BuildPsShapedDag(graph, 16, 8);
  Cluster first(TinySpec());
  Cluster second(TinySpec());
  Cluster third(TinySpec());
  TaskResult a = graph.Execute(first);
  TaskResult b = graph.Execute(second);
  TaskResult c = graph.Execute(third);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.makespan, c.makespan);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST(TaskGraphSteadyStateTest, RepeatedExecuteAllocatesNothing) {
  TaskGraph graph;
  BuildPsShapedDag(graph, 16, 8);
  Cluster warm_cluster(TinySpec());
  graph.Execute(warm_cluster);  // sizes the run-state arrays

  Cluster cluster(TinySpec());
  size_t before = AllocCount();
  graph.Execute(cluster);
  EXPECT_EQ(AllocCount() - before, 0u);
}

TEST(TaskGraphSteadyStateTest, ResetRebuildExecuteAllocatesNothingAndIsDeterministic) {
  TaskGraph graph;
  BuildPsShapedDag(graph, 16, 8);
  Cluster warm_cluster(TinySpec());
  SimTime reference = graph.Execute(warm_cluster).makespan;

  for (int round = 0; round < 3; ++round) {
    Cluster cluster(TinySpec());
    size_t before = AllocCount();
    graph.Reset();
    BuildPsShapedDag(graph, 16, 8);
    TaskResult result = graph.Execute(cluster);
    EXPECT_EQ(AllocCount() - before, 0u) << "round " << round;
    EXPECT_EQ(result.makespan, reference) << "round " << round;
  }
}

TEST(TaskGraphSteadyStateTest, ResetPreservesFingerprintOfIdenticalRebuild) {
  TaskGraph graph;
  BuildPsShapedDag(graph, 8, 8);
  uint64_t fingerprint = graph.StructuralFingerprint();
  graph.Reset();
  EXPECT_EQ(graph.num_tasks(), 0u);
  BuildPsShapedDag(graph, 8, 8);
  EXPECT_EQ(graph.StructuralFingerprint(), fingerprint);
}

class SimulatorSteadyStateTest : public ::testing::TestWithParam<GathervAlgorithm> {};

TEST_P(SimulatorSteadyStateTest, SimulateIterationIsAllocationFreeOnceWarm) {
  IterationSimulator sim(TinySpec(), HybridVariables(6), 4e-3, 4,
                         HybridSimConfig(GetParam()));
  Cluster cluster(TinySpec());
  SimTime t = 0.0;
  for (int i = 0; i < 2; ++i) {
    t = sim.SimulateIteration(cluster, t);  // warm: sizes scratch, builds plans
  }
  size_t before = AllocCount();
  for (int i = 0; i < 5; ++i) {
    t = sim.SimulateIteration(cluster, t);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
}

INSTANTIATE_TEST_SUITE_P(Gatherv, SimulatorSteadyStateTest,
                         ::testing::Values(GathervAlgorithm::kRing,
                                           GathervAlgorithm::kBroadcast));

TEST(SimulatorSteadyStateTest, RackedPlacedIterationIsAllocationFreeOnceWarm) {
  // The hierarchical plans (spine links, rack-aware rings, pinned shard placements)
  // must keep the zero-steady-state-allocation invariant the search relies on.
  ClusterSpec spec = TinySpec();
  spec.topology.num_racks = 2;
  spec.topology.spine_bandwidth = 2e9;
  spec.topology.spine_latency = 5e-6;
  std::vector<VariableSync> vars = HybridVariables(6);
  vars[0].placement = {0, 2, 1, 3, 0, 2};  // pin embedding shards across both racks
  IterationSimulator sim(spec, std::move(vars), 4e-3, 4,
                         HybridSimConfig(GathervAlgorithm::kRing));
  Cluster cluster(spec);
  SimTime t = 0.0;
  for (int i = 0; i < 2; ++i) {
    t = sim.SimulateIteration(cluster, t);
  }
  size_t before = AllocCount();
  for (int i = 0; i < 5; ++i) {
    t = sim.SimulateIteration(cluster, t);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
}

TEST(SimulatorSteadyStateTest, RepeatedRunsAreIdentical) {
  IterationSimulator sim(TinySpec(), HybridVariables(6), 4e-3, 4,
                         HybridSimConfig(GathervAlgorithm::kRing));
  std::vector<double> first = sim.RunIterations(5);
  std::vector<double> second = sim.RunIterations(5);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "iteration " << i;
  }
}

TEST(SimulatorSteadyStateTest, SharedArenaMatchesPrivateArenas) {
  // The partition-search usage pattern: one arena, a fresh simulator per sampled P.
  // Results must match simulators that each own a private arena.
  SimulationArena arena;
  for (int partitions : {4, 8, 16, 4}) {  // revisit P=4 to exercise cache reuse
    IterationSimulator shared(TinySpec(), HybridVariables(partitions), 4e-3, 4,
                              HybridSimConfig(GathervAlgorithm::kRing), &arena);
    IterationSimulator private_arena(TinySpec(), HybridVariables(partitions), 4e-3, 4,
                                     HybridSimConfig(GathervAlgorithm::kRing));
    std::vector<double> a = shared.RunIterations(4);
    std::vector<double> b = private_arena.RunIterations(4);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "P=" << partitions << " iteration " << i;
    }
  }
}

TEST(SimulatorSteadyStateTest, SharedArenaSearchSteadyStateIsAllocationFree) {
  // After one full pass over the candidate set, re-simulating any candidate through the
  // shared arena allocates nothing (the RunIterations wrapper itself allocates a
  // Cluster and result vector, so drive SimulateIteration directly).
  SimulationArena arena;
  IterationSimConfig config = HybridSimConfig(GathervAlgorithm::kRing);
  for (int partitions : {4, 8, 16}) {
    IterationSimulator sim(TinySpec(), HybridVariables(partitions), 4e-3, 4, config,
                           &arena);
    Cluster cluster(TinySpec());
    SimTime t = 0.0;
    for (int i = 0; i < 2; ++i) {
      t = sim.SimulateIteration(cluster, t);
    }
  }
  for (int partitions : {4, 8, 16}) {
    IterationSimConfig local_config = config;
    std::vector<VariableSync> vars = HybridVariables(partitions);
    Cluster cluster(TinySpec());
    IterationSimulator sim(TinySpec(), std::move(vars), 4e-3, 4, local_config, &arena);
    SimTime t = sim.SimulateIteration(cluster, 0.0);
    size_t before = AllocCount();
    for (int i = 0; i < 4; ++i) {
      t = sim.SimulateIteration(cluster, t);
    }
    EXPECT_EQ(AllocCount() - before, 0u) << "P=" << partitions;
  }
}

// Which variables of HybridVariables go to PS: the sparse embedding only (hybrid),
// all three, or none (the dense AllReduce and the sparse AllGatherv remain).
enum class ReplayPlan { kHybrid, kPsOnly, kArOnly };

// One configuration of the replay test below. Every job runs on `machines` x `gpus`
// (4 x 2 unless a case says otherwise), with the embedding in 6 pieces.
struct ReplayCase {
  const char* name;
  ReplayPlan plan = ReplayPlan::kHybrid;
  int num_racks = 1;
  bool placed = false;  // pin the embedding's pieces to explicit servers
  bool local_aggregation = false;
  bool machine_level_pulls = false;
  GathervAlgorithm gatherv = GathervAlgorithm::kBroadcast;
  CompressionKind compression = CompressionKind::kNone;  // on the embedding's pushes
  int machines = 4;
  int gpus = 2;
  // Rounding at a later start time breaks an exact tie between two tasks ready at the
  // same instant the other way, so the event loop serves them in the other order and
  // the iteration takes a different time (ROADMAP, "Make a step's simulated time
  // independent of its start time"). Iteration 0, from t = 0, keeps the insertion-order
  // tie-break the event loop is built on.
  bool later_starts_flip_a_tie = false;
};

// Names the ctest entries after the case instead of its raw bytes.
void PrintTo(const ReplayCase& c, std::ostream* os) { *os << c.name; }

std::vector<VariableSync> ReplayVariables(const ReplayCase& c) {
  std::vector<VariableSync> vars = HybridVariables(6);
  switch (c.plan) {
    case ReplayPlan::kHybrid:
      break;
    case ReplayPlan::kPsOnly:
      vars[1].method = SyncMethod::kPs;
      vars[1].partitions = 2;
      vars[2].method = SyncMethod::kPs;
      vars[2].partitions = 3;
      break;
    case ReplayPlan::kArOnly:
      vars.erase(vars.begin());  // dense AllReduce and sparse AllGatherv remain
      break;
  }
  if (c.plan != ReplayPlan::kArOnly) {
    if (c.placed) {
      vars[0].placement = {0, c.machines - 1, 1 % c.machines, 2 % c.machines, 0,
                           c.machines - 1};
    }
    vars[0].compression.kind = c.compression;
    vars[0].compression.ratio = c.compression == CompressionKind::kTopK ? 0.1 : 1.0;
  }
  return vars;
}

class SimulatorReplayTest : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(SimulatorReplayTest, EveryIterationReplaysTheFirst) {
  const ReplayCase& c = GetParam();
  ClusterSpec spec = TinySpec();
  spec.num_machines = c.machines;
  spec.gpus_per_machine = c.gpus;
  spec.topology.num_racks = c.num_racks;
  spec.topology.spine_bandwidth = 2e9;
  spec.topology.spine_latency = 5e-6;
  IterationSimConfig config;
  config.ps_local_aggregation = c.local_aggregation;
  config.ps_machine_level_pulls = c.machine_level_pulls;
  config.gatherv_algorithm = c.gatherv;
  IterationSimulator sim(spec, ReplayVariables(c), 4e-3, 4, config);

  const double one = sim.MeasureIterationSeconds();
  ASSERT_GT(one, 0.0);
  EXPECT_EQ(one, sim.RunIterations(1)[0]) << "not the first iteration, bit for bit";

  // The barrier drains the cluster: each of 20 back-to-back iterations finishes
  // exactly when the same iteration would on a fresh cluster from the same start.
  const std::vector<double> twenty = sim.RunIterations(20);
  Cluster cluster(spec);
  SimTime start = 0.0;
  double worst = 0.0;
  for (size_t i = 0; i < twenty.size(); ++i) {
    const SimTime finish = sim.SimulateIteration(cluster, start);
    Cluster fresh(spec);
    EXPECT_EQ(finish, sim.SimulateIteration(fresh, start)) << "iteration " << i;
    EXPECT_EQ(finish - start, twenty[i]) << "iteration " << i;
    worst = std::max(worst, std::abs(twenty[i] - one) / one);
    start = finish;
  }
  // So every iteration replays the first, up to the rounding its start time adds.
  if (c.later_starts_flip_a_tie) {
    EXPECT_GT(worst, 1e-3) << "the tie no longer flips: clear later_starts_flip_a_tie";
  } else {
    EXPECT_LE(worst, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimulatorReplayTest,
    ::testing::Values(
        ReplayCase{.name = "flat_hybrid_naive_ps"},
        ReplayCase{.name = "flat_hybrid_local_aggregation", .local_aggregation = true},
        ReplayCase{.name = "flat_hybrid_machine_pulls", .machine_level_pulls = true},
        ReplayCase{.name = "flat_hybrid_opt_ps_ring", .local_aggregation = true,
                   .machine_level_pulls = true, .gatherv = GathervAlgorithm::kRing},
        ReplayCase{.name = "flat_hybrid_placed", .placed = true, .local_aggregation = true,
                   .machine_level_pulls = true},
        ReplayCase{.name = "racked_hybrid", .num_racks = 2, .later_starts_flip_a_tie = true},
        ReplayCase{.name = "racked_hybrid_placed_ring", .num_racks = 2, .placed = true,
                   .local_aggregation = true, .machine_level_pulls = true,
                   .gatherv = GathervAlgorithm::kRing},
        ReplayCase{.name = "flat_ps_only", .plan = ReplayPlan::kPsOnly},
        ReplayCase{.name = "racked_ps_only_placed_opt_ps", .plan = ReplayPlan::kPsOnly,
                   .num_racks = 2, .placed = true, .local_aggregation = true,
                   .machine_level_pulls = true},
        ReplayCase{.name = "flat_ar_only_broadcast", .plan = ReplayPlan::kArOnly},
        ReplayCase{.name = "racked_ar_only_ring", .plan = ReplayPlan::kArOnly, .num_racks = 2,
                   .gatherv = GathervAlgorithm::kRing},
        ReplayCase{.name = "flat_hybrid_topk", .compression = CompressionKind::kTopK},
        ReplayCase{.name = "flat_hybrid_int8_opt_ps", .local_aggregation = true,
                   .machine_level_pulls = true, .compression = CompressionKind::kInt8},
        ReplayCase{.name = "racked_ps_only_topk_placed", .plan = ReplayPlan::kPsOnly,
                   .num_racks = 2, .placed = true, .compression = CompressionKind::kTopK},
        ReplayCase{.name = "single_gpu", .machines = 1, .gpus = 1},
        ReplayCase{.name = "one_machine_four_gpus", .local_aggregation = true,
                   .machine_level_pulls = true, .machines = 1, .gpus = 4}));

TEST(ExecutorSteadyStateTest, FullRunStepIsAllocationFreeOnceWarm) {
  // The gather-bearing WordLM graph produces every gradient flavour: sparse slices for
  // the embedding, dense tensors for the MLP, and a softmax that concatenates two
  // gather contributions. RunStepInto must recycle the StepResult's map nodes and
  // gradient storage so the whole step — not just the interior backward pass — stays
  // off the allocator in steady state.
  WordLmModel model({.vocab_size = 80, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 12, .seed = 907});
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  ExecScratch scratch;
  StepResult result;
  Rng rng(31);
  std::vector<FeedMap> feeds;
  for (int s = 0; s < 4; ++s) {
    feeds.push_back(model.TrainShards(1, rng)[0]);
  }

  // Warm: the first steps size every buffer (temps, node gradients, slice storage).
  for (int s = 0; s < 4; ++s) {
    executor.RunStepInto(store, feeds[static_cast<size_t>(s)], model.loss(), &scratch,
                         &result);
  }

  size_t before = AllocCount();
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < 4; ++s) {
      executor.RunStepInto(store, feeds[static_cast<size_t>(s)], model.loss(), &scratch,
                           &result);
    }
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_GT(result.grads.size(), 0u);
}

}  // namespace
}  // namespace parallax
