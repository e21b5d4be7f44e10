#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/comm/collectives.h"
#include "src/comm/reduce.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

ClusterSpec FlatSpec(int machines) {
  ClusterSpec spec;
  spec.num_machines = machines;
  spec.gpus_per_machine = 1;
  spec.nic_bandwidth = 1e9;
  spec.nic_latency = 0.0;  // latency-free: byte formulas become exact
  spec.pcie_bandwidth = 4e9;
  spec.pcie_latency = 0.0;
  return spec;
}

// One collective scheduled through a fresh cache: the AllReduce at one rack, and the
// rank-ring AllGatherv. On RankLayout{N, 1} both are the machine rings of Table 3.
CollectiveSchedule AllReduce(TaskGraph& graph, const RankLayout& layout, int64_t bytes,
                             const std::vector<TaskId>& deps,
                             const CollectiveOptions& options) {
  CollectiveScheduleCache cache;
  CollectiveSchedule schedule;
  cache.Instantiate(cache.AllReduce(layout, 1, bytes, options), graph, deps, &schedule);
  return schedule;
}

CollectiveSchedule RankRingAllGatherv(TaskGraph& graph, const RankLayout& layout,
                                      const std::vector<int64_t>& blocks,
                                      const std::vector<TaskId>& deps,
                                      const CollectiveOptions& options) {
  CollectiveScheduleCache cache;
  CollectiveSchedule schedule;
  cache.Instantiate(cache.RankRingAllGatherv(layout, blocks, options), graph, deps,
                    &schedule);
  return schedule;
}

// Parameterized over machine count: the paper's ring formulas (Table 3) must hold for
// every N.
class RingParamTest : public ::testing::TestWithParam<int> {};

TEST_P(RingParamTest, AllReducePerMachineBytesMatchTable3) {
  const int n = GetParam();
  const int64_t w = 8'000'000;  // divisible by all tested n
  Cluster cluster(FlatSpec(n));
  TaskGraph graph;
  CollectiveOptions options;
  options.step_overhead = 0.0;
  std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
  AllReduce(graph, RankLayout{n, 1}, w, deps, options);
  graph.Execute(cluster);
  // Table 3, AR row, one dense variable: 4w(N-1)/N per machine (in + out).
  int64_t expected = n == 1 ? 0 : 4 * w * (n - 1) / n;
  for (int m = 0; m < n; ++m) {
    EXPECT_EQ(cluster.NicBytes(m), expected) << "machine " << m << " of " << n;
  }
}

TEST_P(RingParamTest, AllGathervPerMachineBytesMatchTable3) {
  const int n = GetParam();
  const int64_t alpha_w = 1'000'000;  // every machine contributes the same block
  Cluster cluster(FlatSpec(n));
  TaskGraph graph;
  CollectiveOptions options;
  options.step_overhead = 0.0;
  std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
  std::vector<int64_t> blocks(static_cast<size_t>(n), alpha_w);
  RankRingAllGatherv(graph, RankLayout{n, 1}, blocks, deps, options);
  graph.Execute(cluster);
  // Table 3, AR row, one sparse variable: 2*alpha*w*(N-1) per machine.
  int64_t expected = n == 1 ? 0 : 2 * alpha_w * (n - 1);
  for (int m = 0; m < n; ++m) {
    EXPECT_EQ(cluster.NicBytes(m), expected) << "machine " << m << " of " << n;
  }
}

TEST_P(RingParamTest, AllReduceTimeNearBandwidthOptimal) {
  const int n = GetParam();
  if (n == 1) {
    return;
  }
  const int64_t w = 80'000'000;
  Cluster cluster(FlatSpec(n));
  TaskGraph graph;
  CollectiveOptions options;
  options.step_overhead = 0.0;
  std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
  AllReduce(graph, RankLayout{n, 1}, w, deps, options);
  double finish = graph.Execute(cluster).makespan;
  // Ring optimum: 2(N-1)/N * w / B. The store-and-forward link model serializes each
  // hop through two queues, so the simulated schedule lands within ~2.3x of optimal
  // while preserving the N-scaling shape.
  double optimal = 2.0 * (n - 1) / n * static_cast<double>(w) / 1e9;
  EXPECT_GE(finish, optimal * 0.99);
  EXPECT_LE(finish, optimal * 2.3);
}

INSTANTIATE_TEST_SUITE_P(MachineCounts, RingParamTest, ::testing::Values(1, 2, 4, 5, 8, 16));

TEST(CollectivesTest, AllReduceRespectsDependencies) {
  const int n = 4;
  Cluster cluster(FlatSpec(n));
  TaskGraph graph;
  // Machine 2's gradient is only ready at t=1s; nobody can finish before that.
  std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
  deps[2] = graph.AddDelay(1.0);
  CollectiveSchedule schedule =
      AllReduce(graph, RankLayout{n, 1}, 4'000'000, deps, CollectiveOptions{0.0});
  graph.Execute(cluster);
  for (int m = 0; m < n; ++m) {
    EXPECT_GE(graph.FinishTime(schedule.done[static_cast<size_t>(m)]), 1.0);
  }
}

TEST(CollectivesTest, SingleMachineIsFree) {
  Cluster cluster(FlatSpec(1));
  TaskGraph graph;
  CollectiveSchedule schedule =
      AllReduce(graph, RankLayout{1, 1}, 1'000'000, {kNoTask}, CollectiveOptions{0.0});
  graph.Execute(cluster);
  EXPECT_DOUBLE_EQ(graph.FinishTime(schedule.done[0]), 0.0);
  EXPECT_EQ(cluster.NicBytes(0), 0);
}

TEST(CollectivesTest, HierarchicalUsesPcieLocallyAndNicAcross) {
  ClusterSpec spec = FlatSpec(2);
  spec.gpus_per_machine = 4;
  Cluster cluster(spec);
  TaskGraph graph;
  RankLayout layout{2, 4};
  std::vector<TaskId> deps(8, kNoTask);
  const int64_t bytes = 4'000'000;
  CollectiveSchedule schedule = AllReduce(graph, layout, bytes, deps, CollectiveOptions{0.0});
  graph.Execute(cluster);
  EXPECT_EQ(static_cast<int>(schedule.done.size()), 8);
  // NIC carries only the inter-machine ring (4w(N-1)/N with N=2 machines => 2w each).
  EXPECT_EQ(cluster.NicBytes(0), 2 * bytes);
  EXPECT_EQ(cluster.NicBytes(1), 2 * bytes);
  // PCIe carried the local reduce + broadcast.
  EXPECT_GT(cluster.machine(0).pcie_out.total_bytes(), 0);
}

// The store-and-forward link model (task_graph.h) holds the sender's NIC out, then the
// receiver's NIC in, so every hop takes twice its wire time. On a latency-free flat
// cluster with no step overhead the ring schedules therefore end at exactly twice
// their bandwidth optimum: 2 x 2(N-1)/N * w/B for the AllReduce and 2 x (N-1) * b/B
// for the rank-ring AllGatherv. A cut-through link model would move this pin to 1.
TEST(CollectivesTest, StoreAndForwardDoublesTheRingOptimum) {
  const double bandwidth = FlatSpec(1).nic_bandwidth;
  const int64_t w = 80'000'000;  // divisible by every tested N
  const int64_t b = 8'000'000;   // likewise
  for (int n : {2, 4, 5, 8, 16}) {
    SCOPED_TRACE(testing::Message() << "N=" << n);
    const RankLayout layout{n, 1};
    const std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
    const CollectiveOptions options{0.0};

    Cluster ar_cluster(FlatSpec(n));
    TaskGraph ar_graph;
    AllReduce(ar_graph, layout, w, deps, options);
    const double ar_seconds = ar_graph.Execute(ar_cluster).makespan;
    const double ar_expected = 2.0 * (2.0 * (n - 1) / n * static_cast<double>(w) / bandwidth);
    EXPECT_NEAR(ar_seconds, ar_expected, 1e-12 * ar_expected);

    Cluster gv_cluster(FlatSpec(n));
    TaskGraph gv_graph;
    RankRingAllGatherv(gv_graph, layout, std::vector<int64_t>(static_cast<size_t>(n), b),
                       deps, options);
    const double gv_seconds = gv_graph.Execute(gv_cluster).makespan;
    const double gv_expected = 2.0 * ((n - 1) * static_cast<double>(b) / bandwidth);
    EXPECT_NEAR(gv_seconds, gv_expected, 1e-12 * gv_expected);
  }
}

TEST(CollectivesTest, RankRingGathervCrossesEachNicOncePerStep) {
  ClusterSpec spec = FlatSpec(2);
  spec.gpus_per_machine = 2;
  Cluster cluster(spec);
  TaskGraph graph;
  RankLayout layout{2, 2};
  const int64_t block = 1'000'000;
  std::vector<int64_t> blocks(4, block);
  std::vector<TaskId> deps(4, kNoTask);
  RankRingAllGatherv(graph, layout, blocks, deps, CollectiveOptions{0.0});
  graph.Execute(cluster);
  // Ring over ranks 0,1 | 2,3: boundary hops 1->2 and 3->0 cross the NIC, once per step,
  // 3 steps => 3 blocks out + 3 blocks in per machine.
  EXPECT_EQ(cluster.NicBytes(0), 6 * block);
  EXPECT_EQ(cluster.NicBytes(1), 6 * block);
}

// The rank ring emits its N(N-1) hops and nothing else: each rank's completion is its
// last arrival, a hop, with no barrier behind it. A single rank receives nothing, so its
// completion is one barrier on its own readiness.
TEST(CollectivesTest, RankRingGathervEmitsOnlyItsHops) {
  for (const RankLayout layout : {RankLayout{1, 1}, RankLayout{2, 1}, RankLayout{5, 1},
                                  RankLayout{1, 4}, RankLayout{3, 2}}) {
    const int n = layout.num_ranks();
    SCOPED_TRACE(testing::Message() << "ranks=" << n);
    CollectiveScheduleCache cache;
    const std::vector<int64_t> blocks(static_cast<size_t>(n), 1000);
    const SchedulePlan& plan = cache.RankRingAllGatherv(layout, blocks, CollectiveOptions{0.0});
    const size_t hops = static_cast<size_t>(n) * static_cast<size_t>(n - 1);
    ASSERT_EQ(plan.ops.size(), n == 1 ? 1 : hops);
    ASSERT_EQ(plan.done_refs.size(), static_cast<size_t>(n));
    for (const int32_t ref : plan.done_refs) {
      const TaskKind kind = plan.ops[static_cast<size_t>(ref)].kind;
      if (n == 1) {
        EXPECT_EQ(kind, TaskKind::kBarrier);
      } else {
        EXPECT_TRUE(kind == TaskKind::kTransfer || kind == TaskKind::kLocalTransfer);
      }
    }
    TaskGraph graph;
    CollectiveSchedule schedule;
    cache.Instantiate(plan, graph, std::vector<TaskId>(static_cast<size_t>(n), kNoTask),
                      &schedule);
    EXPECT_EQ(graph.num_tasks(), n == 1 ? 1 : hops);
    EXPECT_EQ(schedule.done.size(), static_cast<size_t>(n));
  }
}

TEST(ReduceTest, AllGathervConcatAndAverage) {
  Rng rng(15);
  std::vector<IndexedSlices> parts;
  for (int i = 0; i < 3; ++i) {
    parts.emplace_back(std::vector<int64_t>{i, 2 * i},
                       RandomNormal(TensorShape({2, 2}), rng), TensorShape({6, 2}));
  }
  IndexedSlices concat = AllGathervConcat(parts);
  EXPECT_EQ(concat.nnz_rows(), 6);
  IndexedSlices averaged = AllGathervAggregate(parts, AggregationMethod::kAverage);
  Tensor expected = concat.ToDense();
  ScaleInPlace(expected, 1.0f / 3.0f);
  EXPECT_TRUE(AllClose(averaged.ToDense(), expected, 1e-6f));
}

}  // namespace
}  // namespace parallax
