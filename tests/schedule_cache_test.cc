// Cached collective schedules must be byte-identical to freshly built ones: the
// CollectiveScheduleCache replays a stored SchedulePlan into the task graph, and the
// resulting task sequence (kinds, machines, payloads, dependency lists) has to match
// what another cache's first build emits, across layouts, sizes, and dependency shapes.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <utility>

#include "src/comm/collectives.h"

namespace parallax {
namespace {

ClusterSpec FlatSpec(int machines, int gpus) {
  ClusterSpec spec;
  spec.num_machines = machines;
  spec.gpus_per_machine = gpus;
  spec.nic_bandwidth = 1e9;
  spec.nic_latency = 1e-6;
  spec.pcie_bandwidth = 4e9;
  spec.pcie_latency = 1e-6;
  return spec;
}

CollectiveSchedule Replay(const CollectiveScheduleCache& cache, const SchedulePlan& plan,
                          TaskGraph& graph, const std::vector<TaskId>& deps) {
  CollectiveSchedule schedule;
  cache.Instantiate(plan, graph, deps, &schedule);
  return schedule;
}

// Builds the same collective three ways — one cache's cold build (`fresh`), a second
// cache's cold build and that cache's warm replay — and asserts structural
// fingerprints, task counts, and executed makespans are identical. `add` receives the
// graph and the cache; `make_deps` seeds per-participant dependency tasks (identically
// into every graph).
void ExpectCachedMatchesFresh(
    const ClusterSpec& spec,
    const std::function<std::vector<TaskId>(TaskGraph&)>& make_deps,
    const std::function<CollectiveSchedule(TaskGraph&, const std::vector<TaskId>&,
                                           CollectiveScheduleCache&)>& add) {
  CollectiveScheduleCache other;
  TaskGraph fresh;
  CollectiveSchedule fresh_schedule = add(fresh, make_deps(fresh), other);

  CollectiveScheduleCache cache;
  TaskGraph cold;
  CollectiveSchedule cold_schedule = add(cold, make_deps(cold), cache);
  EXPECT_EQ(cache.misses(), 1u);

  TaskGraph warm;
  CollectiveSchedule warm_schedule = add(warm, make_deps(warm), cache);
  EXPECT_GE(cache.hits(), 1u);

  EXPECT_EQ(fresh.num_tasks(), cold.num_tasks());
  EXPECT_EQ(fresh.num_tasks(), warm.num_tasks());
  EXPECT_EQ(fresh.StructuralFingerprint(), cold.StructuralFingerprint());
  EXPECT_EQ(fresh.StructuralFingerprint(), warm.StructuralFingerprint());
  ASSERT_EQ(fresh_schedule.done.size(), warm_schedule.done.size());
  for (size_t i = 0; i < fresh_schedule.done.size(); ++i) {
    EXPECT_EQ(fresh_schedule.done[i], warm_schedule.done[i]) << "done[" << i << "]";
  }
  EXPECT_EQ(cold_schedule.done, warm_schedule.done);

  Cluster fresh_cluster(spec);
  Cluster warm_cluster(spec);
  TaskResult fresh_result = fresh.Execute(fresh_cluster);
  TaskResult warm_result = warm.Execute(warm_cluster);
  EXPECT_EQ(fresh_result.makespan, warm_result.makespan);
  EXPECT_EQ(fresh_result.finish_time, warm_result.finish_time);
}

TEST(ScheduleCacheTest, RingAllReduceAcrossSizes) {
  for (int n : {1, 2, 4, 8}) {
    for (int64_t bytes : {1'000ll, 8'000'003ll}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " bytes=" << bytes);
      ExpectCachedMatchesFresh(
          FlatSpec(n, 1),
          [n](TaskGraph& graph) {
            std::vector<TaskId> deps;
            for (int i = 0; i < n; ++i) {
              deps.push_back(graph.AddDelay(1e-4 * (i + 1)));
            }
            return deps;
          },
          [n, bytes](TaskGraph& graph, const std::vector<TaskId>& deps,
                     CollectiveScheduleCache& cache) {
            return Replay(cache, cache.AllReduce(RankLayout{n, 1}, 1, bytes, CollectiveOptions{}),
                          graph, deps);
          });
    }
  }
}

TEST(ScheduleCacheTest, RingAllReduceWithAbsentDeps) {
  // kNoTask deps leave each machine's reduce gate without a dependency; the cached plan
  // must replay to exactly the graph another cache's first build emits.
  const int n = 4;
  ExpectCachedMatchesFresh(
      FlatSpec(n, 1),
      [](TaskGraph&) { return std::vector<TaskId>(n, kNoTask); },
      [](TaskGraph& graph, const std::vector<TaskId>& deps, CollectiveScheduleCache& cache) {
        return Replay(cache, cache.AllReduce(RankLayout{n, 1}, 1, 4'000'000, CollectiveOptions{}),
                      graph, deps);
      });
}

TEST(ScheduleCacheTest, RingAllReduceWithMixedDeps) {
  const int n = 5;
  ExpectCachedMatchesFresh(
      FlatSpec(n, 1),
      [](TaskGraph& graph) {
        std::vector<TaskId> deps(n, kNoTask);
        deps[1] = graph.AddDelay(0.5);
        deps[3] = graph.AddDelay(0.25);
        return deps;
      },
      [](TaskGraph& graph, const std::vector<TaskId>& deps, CollectiveScheduleCache& cache) {
        return Replay(cache,
                      cache.AllReduce(RankLayout{n, 1}, 1, 10'000'000, CollectiveOptions{}),
                      graph, deps);
      });
}

TEST(ScheduleCacheTest, RingAllGathervUniformAndSkewedBlocks) {
  const int n = 6;
  for (bool skewed : {false, true}) {
    SCOPED_TRACE(testing::Message() << "skewed=" << skewed);
    std::vector<int64_t> blocks(static_cast<size_t>(n), 1'000'000);
    if (skewed) {
      for (int i = 0; i < n; ++i) {
        blocks[static_cast<size_t>(i)] = 100'000 * (i + 1);
      }
    }
    ExpectCachedMatchesFresh(
        FlatSpec(n, 1),
        [](TaskGraph& graph) {
          std::vector<TaskId> deps;
          for (int i = 0; i < n; ++i) {
            deps.push_back(graph.AddDelay(1e-5));
          }
          return deps;
        },
        [&blocks](TaskGraph& graph, const std::vector<TaskId>& deps,
                  CollectiveScheduleCache& cache) {
          return Replay(cache,
                        cache.RankRingAllGatherv(RankLayout{n, 1}, blocks, CollectiveOptions{}),
                        graph, deps);
        });
  }
}

TEST(ScheduleCacheTest, HierarchicalAllReduceAcrossLayouts) {
  for (auto [machines, gpus] : {std::pair{1, 4}, {2, 1}, {2, 4}, {4, 6}}) {
    SCOPED_TRACE(testing::Message() << machines << "x" << gpus);
    RankLayout layout{machines, gpus};
    ExpectCachedMatchesFresh(
        FlatSpec(machines, gpus),
        [layout](TaskGraph& graph) {
          std::vector<TaskId> deps;
          for (int r = 0; r < layout.num_ranks(); ++r) {
            deps.push_back(graph.AddDelay(1e-5 * (r % 3 + 1)));
          }
          return deps;
        },
        [layout](TaskGraph& graph, const std::vector<TaskId>& deps,
                 CollectiveScheduleCache& cache) {
          return Replay(cache, cache.AllReduce(layout, 1, 4'000'000, CollectiveOptions{}),
                        graph, deps);
        });
  }
}

TEST(ScheduleCacheTest, RankRingAllGathervAcrossLayouts) {
  for (auto [machines, gpus] : {std::pair{1, 1}, {2, 2}, {3, 4}}) {
    SCOPED_TRACE(testing::Message() << machines << "x" << gpus);
    RankLayout layout{machines, gpus};
    std::vector<int64_t> blocks(static_cast<size_t>(layout.num_ranks()), 500'000);
    ExpectCachedMatchesFresh(
        FlatSpec(machines, gpus),
        [layout](TaskGraph& graph) {
          std::vector<TaskId> deps;
          for (int r = 0; r < layout.num_ranks(); ++r) {
            deps.push_back(graph.AddDelay(2e-5));
          }
          return deps;
        },
        [layout, &blocks](TaskGraph& graph, const std::vector<TaskId>& deps,
                          CollectiveScheduleCache& cache) {
          return Replay(cache, cache.RankRingAllGatherv(layout, blocks, CollectiveOptions{}),
                        graph, deps);
        });
  }
}

TEST(ScheduleCacheTest, TopologyAllReduceAcrossRackLayouts) {
  // The rack-aware plan replays byte-identically from the cache, across machine/GPU/
  // rack shapes, executed on a cluster whose spine links actually serialize.
  for (auto [machines, gpus, racks] :
       {std::tuple{2, 1, 2}, {4, 2, 2}, {8, 1, 2}, {6, 2, 3}}) {
    SCOPED_TRACE(testing::Message() << machines << "x" << gpus << " racks=" << racks);
    ClusterSpec spec = FlatSpec(machines, gpus);
    spec.topology.num_racks = racks;
    spec.topology.spine_bandwidth = 5e8;
    spec.topology.spine_latency = 5e-6;
    RankLayout layout{machines, gpus};
    const int num_racks = racks;
    ExpectCachedMatchesFresh(
        spec,
        [layout](TaskGraph& graph) {
          std::vector<TaskId> deps;
          for (int r = 0; r < layout.num_ranks(); ++r) {
            deps.push_back(graph.AddDelay(1e-5 * (r % 3 + 1)));
          }
          return deps;
        },
        [layout, num_racks](TaskGraph& graph, const std::vector<TaskId>& deps,
                            CollectiveScheduleCache& cache) {
          return Replay(cache,
                        cache.AllReduce(layout, num_racks, 4'000'000, CollectiveOptions{}),
                        graph, deps);
        });
  }
}

TEST(ScheduleCacheTest, BroadcastAllGathervAcrossLayouts) {
  for (auto [machines, gpus] : {std::pair{1, 2}, {2, 2}, {4, 1}}) {
    SCOPED_TRACE(testing::Message() << machines << "x" << gpus);
    RankLayout layout{machines, gpus};
    ExpectCachedMatchesFresh(
        FlatSpec(machines, gpus),
        [layout](TaskGraph& graph) {
          std::vector<TaskId> deps;
          for (int r = 0; r < layout.num_ranks(); ++r) {
            deps.push_back(graph.AddDelay(1e-5 * (r + 1)));
          }
          return deps;
        },
        [layout](TaskGraph& graph, const std::vector<TaskId>& deps,
                 CollectiveScheduleCache& cache) {
          return Replay(cache, cache.BroadcastAllGatherv(layout, 250'000, 300'000), graph, deps);
        });
  }
}

TEST(ScheduleCacheTest, DistinctKeysGetDistinctPlans) {
  CollectiveScheduleCache cache;
  CollectiveOptions options;
  cache.AllReduce(RankLayout{4, 1}, 1, 1000, options);
  cache.AllReduce(RankLayout{4, 1}, 1, 2000, options);
  cache.AllReduce(RankLayout{8, 1}, 1, 1000, options);
  CollectiveOptions no_overhead;
  no_overhead.step_overhead = 0.0;
  cache.AllReduce(RankLayout{4, 1}, 1, 1000, no_overhead);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.AllReduce(RankLayout{4, 1}, 1, 1000, options);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.hits(), 1u);
  // The rack count is part of the key: two racks of two machines is another schedule.
  cache.AllReduce(RankLayout{4, 1}, 2, 1000, options);
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.hits(), 1u);
}

}  // namespace
}  // namespace parallax
