// PlannerService correctness:
//  - a service plan is byte-identical (ToString + placements) to a private-arena
//    SearchPartitionPlan at the same canonicalized key — the cache never changes the
//    answer, only who pays for it,
//  - a cache hit returns the same plan state as the search that populated it,
//  - N threads issuing the same query coalesce onto ONE simulation; distinct keys
//    search separately,
//  - LRU eviction respects the configured capacity,
//  - a running search is never evicted, so its duplicates share it under eviction
//    pressure,
//  - queries that differ in a field a search reads get their own keys, and queries
//    that differ only in fields Canonicalize resets share one; doubles compare by value,
//  - queries and search options a search cannot run are rejected with a Status, never
//    searched; odd queries a search can run are accepted,
//  - ApplyPlanToVariables, the one plan applier, row-caps counts and drops stale
//    placements,
//  - a per-variable query searches exactly its partitioned sparse variables, resumes a
//    warm start from their partitions and drift flags, and without one gets the
//    uniform answer under the uniform query's key; a uniform answer reports its own
//    seconds as its placement-oblivious baseline,
//  - a runner using the shared planner trains bit-identically to a private-search
//    runner (monitored and unmonitored alike),
//  - with alpha_quantum = 0 the shared planner and the private search decide the same
//    way at all three call sites: start-up (the whole search result), adaptive
//    re-search and rescale.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/models/trainable.h"
#include "src/service/planner_service.h"
#include "tests/drift_scenario.h"

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

// A hybrid two-sparse-one-dense model, embedding searchable per-variable.
PlannerQuery MakeQuery(double embedding_alpha, double softmax_alpha = 0.05) {
  PlannerQuery query;
  VariableSync embedding;
  embedding.spec = {"embedding", 640'000, 64, true, embedding_alpha};
  embedding.method = SyncMethod::kPs;
  query.variables.push_back({embedding, /*partitioned=*/true, /*rows=*/10'000});
  VariableSync softmax;
  softmax.spec = {"softmax", 320'000, 64, true, softmax_alpha};
  softmax.method = SyncMethod::kPs;
  query.variables.push_back({softmax, /*partitioned=*/true, /*rows=*/5'000});
  VariableSync dense;
  dense.spec = {"dense", 500'000, 1, false, 1.0};
  dense.method = SyncMethod::kArAllReduce;
  query.variables.push_back({dense, /*partitioned=*/false, /*rows=*/1});
  query.mode = PartitionSearchMode::kPerVariable;

  query.cluster = TinySpec();
  query.sim_config.ps_local_aggregation = true;
  query.sim_config.ps_machine_level_pulls = true;
  query.gpu_compute_seconds = 4e-3;
  query.compute_chunks = 4;
  query.options.initial_partitions = 4;
  return query;
}

// The private-arena oracle: exactly the search the service would run for the
// canonicalized query, on a fresh arena with no cache anywhere.
PartitionPlanSearchResult PrivateSearch(const PlannerQuery& canonical) {
  SimulationArena arena;
  auto measure_plan = [&](const PartitionPlan& plan) {
    IterationSimulator sim(canonical.cluster,
                           ApplyPlanToVariables(canonical.variables, plan),
                           canonical.gpu_compute_seconds, canonical.compute_chunks,
                           canonical.sim_config, &arena);
    return sim.MeasureIterationSeconds();
  };
  return SearchPartitionPlan(measure_plan, SearchTargets(canonical), canonical.cluster,
                             canonical.options);
}

void ExpectPlansIdentical(const PartitionPlan& a, const PartitionPlan& b) {
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.placements(), b.placements());
  EXPECT_TRUE(a == b);
}

TEST(PlannerServiceTest, PlanMatchesPrivateArenaSearchByteForByte) {
  PlannerService service;
  PlannerQuery query = MakeQuery(0.02);
  PlannerResult result = service.Plan(query).value();
  EXPECT_FALSE(result.cache_hit);
  EXPECT_GE(result.search.rounds, 1);  // the per-variable path produced the plan

  PlannerQuery canonical = query;
  service.Canonicalize(&canonical);
  PartitionPlanSearchResult oracle = PrivateSearch(canonical);
  ExpectPlansIdentical(result.search.plan, oracle.plan);
  EXPECT_EQ(result.search.seconds, oracle.seconds);
  EXPECT_EQ(result.search.uniform_seconds, oracle.uniform_seconds);
  EXPECT_EQ(result.search.evaluations, oracle.evaluations);
}

TEST(PlannerServiceTest, CacheHitReturnsIdenticalPlanState) {
  PlannerService service;
  PlannerQuery query = MakeQuery(0.02);
  PlannerResult first = service.Plan(query).value();
  PlannerResult second = service.Plan(query).value();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  ExpectPlansIdentical(first.search.plan, second.search.plan);
  EXPECT_EQ(first.search.seconds, second.search.seconds);
  EXPECT_EQ(first.search.uniform_seconds, second.search.uniform_seconds);
  EXPECT_EQ(first.search.evaluations, second.search.evaluations);
  EXPECT_EQ(service.stats().searches, 1u);
  EXPECT_EQ(service.stats().cache.hits, 1u);
}

TEST(PlannerServiceTest, NearbyAlphasShareABucketDistantOnesDoNot) {
  PlannerService service;  // default alpha_quantum = 0.05
  PlannerQuery a = MakeQuery(0.0200);
  PlannerQuery b = MakeQuery(0.0201);  // within one bucket of a
  PlannerQuery c = MakeQuery(0.0800);  // far outside
  service.Canonicalize(&a);
  service.Canonicalize(&b);
  service.Canonicalize(&c);
  EXPECT_EQ(service.KeyFor(a), service.KeyFor(b));
  EXPECT_FALSE(service.KeyFor(a) == service.KeyFor(c));
  // Canonicalize is idempotent: the representative maps to itself.
  PlannerQuery twice = a;
  service.Canonicalize(&twice);
  EXPECT_EQ(twice.variables[0].sync.spec.alpha, a.variables[0].sync.spec.alpha);
  EXPECT_EQ(SearchTargets(twice)[0].alpha, SearchTargets(a)[0].alpha);
  // The representative stays within ~quantum/2 relative error of the raw alpha.
  EXPECT_NEAR(a.variables[0].sync.spec.alpha, 0.02, 0.02 * 0.05);
}

TEST(PlannerServiceTest, ConcurrentIdenticalQueriesCoalesceToOneSearch) {
  PlannerService service;
  PlannerQuery query = MakeQuery(0.02);
  constexpr int kThreads = 8;
  std::vector<PlannerResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[static_cast<size_t>(t)] = service.Plan(query).value(); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    ExpectPlansIdentical(results[0].search.plan, results[static_cast<size_t>(t)].search.plan);
    EXPECT_EQ(results[0].search.seconds, results[static_cast<size_t>(t)].search.seconds);
  }
  PlannerServiceStats stats = service.stats();
  EXPECT_EQ(stats.searches, 1u) << "duplicate in-flight queries must share one search";
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.coalesced + stats.cache.hits + stats.searches,
            static_cast<uint64_t>(kThreads));
}

TEST(PlannerServiceTest, ConcurrentDistinctQueriesSearchSeparatelyAndMatchOracles) {
  PlannerService service;
  const std::vector<double> alphas = {0.01, 0.03, 0.1, 0.3};
  std::vector<PlannerResult> results(alphas.size());
  std::vector<std::thread> threads;
  threads.reserve(alphas.size());
  for (size_t t = 0; t < alphas.size(); ++t) {
    threads.emplace_back(
        [&, t] { results[t] = service.Plan(MakeQuery(alphas[t])).value(); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(service.stats().searches, alphas.size());
  for (size_t t = 0; t < alphas.size(); ++t) {
    PlannerQuery canonical = MakeQuery(alphas[t]);
    service.Canonicalize(&canonical);
    ExpectPlansIdentical(results[t].search.plan, PrivateSearch(canonical).plan);
  }
}

TEST(PlannerServiceTest, PlanManyCoalescesDuplicatesWithinTheBatch) {
  PlannerService service;
  std::vector<PlannerQuery> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(MakeQuery(i % 2 == 0 ? 0.02 : 0.2));  // two distinct keys
  }
  std::vector<PlannerResult> results = service.PlanMany(queries).value();
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_EQ(service.stats().searches, 2u);
  EXPECT_EQ(service.stats().queries, 6u);
  for (size_t i = 2; i < results.size(); ++i) {
    ExpectPlansIdentical(results[i].search.plan, results[i - 2].search.plan);
  }
}

TEST(PlannerServiceTest, EvictionRespectsCapacity) {
  PlannerServiceOptions options;
  options.cache_capacity = 2;
  PlannerService service(options);
  service.Plan(MakeQuery(0.01)).value();
  service.Plan(MakeQuery(0.05)).value();
  service.Plan(MakeQuery(0.3)).value();  // evicts the 0.01 entry (LRU)
  PlanCacheStats cache = service.stats().cache;
  EXPECT_EQ(cache.size, 2u);
  EXPECT_EQ(cache.capacity, 2u);
  EXPECT_EQ(cache.evictions, 1u);
  // The evicted key misses (and re-searches); the most recent keys still hit.
  PlannerResult again = service.Plan(MakeQuery(0.3)).value();
  EXPECT_TRUE(again.cache_hit);
  PlannerResult evicted = service.Plan(MakeQuery(0.01)).value();
  EXPECT_FALSE(evicted.cache_hit);
  EXPECT_EQ(service.stats().searches, 4u);
}

TEST(PlannerServiceTest, ConcurrentQueriesUnderEvictionPressureMatchTheirSearches) {
  // Room for one finished search, and threads planning two keys and their duplicates
  // at once: one key's search finishes while the other's still runs. A running search
  // is never evicted, so its duplicates share it, and every answer is its key's search.
  PlannerServiceOptions options;
  options.cache_capacity = 1;
  PlannerService service(options);
  const std::vector<PlannerQuery> keys = {MakeQuery(0.02), MakeQuery(0.2)};
  std::vector<PartitionPlanSearchResult> oracles;
  for (const PlannerQuery& key : keys) {
    PlannerQuery canonical = key;
    service.Canonicalize(&canonical);
    SimulationArena arena;
    oracles.push_back(SearchPlan(canonical, &arena));
  }
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::vector<PlannerResult>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        results[static_cast<size_t>(t)].push_back(
            service.Plan(keys[static_cast<size_t>((t + round) % 2)]).value());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE("thread " + std::to_string(t) + ", round " + std::to_string(round));
      const PartitionPlanSearchResult& answer =
          results[static_cast<size_t>(t)][static_cast<size_t>(round)].search;
      const PartitionPlanSearchResult& oracle = oracles[static_cast<size_t>((t + round) % 2)];
      ExpectPlansIdentical(answer.plan, oracle.plan);
      EXPECT_EQ(answer.seconds, oracle.seconds);
      EXPECT_EQ(answer.uniform_seconds, oracle.uniform_seconds);
      EXPECT_EQ(answer.evaluations, oracle.evaluations);
    }
  }
  const PlannerServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_EQ(stats.coalesced + stats.cache.hits + stats.searches, stats.queries);
  EXPECT_GE(stats.searches, 2u);
  EXPECT_LE(stats.cache.size, 1u);
}

TEST(PlannerServiceTest, KeyDoublesCompareByValue) {
  // A latency of -0 is the latency 0: the two queries share one key and one search.
  PlannerService service;
  PlannerQuery positive = MakeQuery(0.02);
  positive.cluster.nic_latency = 0.0;
  PlannerQuery negative = positive;
  negative.cluster.nic_latency = -0.0;
  EXPECT_EQ(service.KeyFor(positive), service.KeyFor(negative));
  EXPECT_FALSE(service.Plan(positive).value().cache_hit);
  EXPECT_TRUE(service.Plan(negative).value().cache_hit);
}

// A PS variable the plan does not control, on a fixed layout.
PlannerVariable FixedPsVariable(int partitions, std::vector<int> placement) {
  VariableSync sync;
  sync.spec = {"fixed", 40'000, 64, true, 0.1};
  sync.method = SyncMethod::kPs;
  sync.partitions = partitions;
  sync.placement = std::move(placement);
  return {sync, /*partitioned=*/false, /*rows=*/625};
}

TEST(PlannerServiceTest, RejectsSearchOptionsASearchCannotRun) {
  // Queries are untrusted input. Each of these queries would abort the search, so Plan
  // and PlanMany return InvalidArgument, and nothing is counted or searched. PlanMany
  // checks every query before it plans any, and names the bad one's index.
  struct BadQuery {
    const char* name;
    void (*apply)(PlannerQuery&);
  };
  const BadQuery cases[] = {
      {"min_partitions < 1", [](PlannerQuery& q) { q.options.min_partitions = 0; }},
      {"max_partitions < min_partitions",
       [](PlannerQuery& q) { q.options.max_partitions = 0; }},
      {"num_machines 0", [](PlannerQuery& q) { q.cluster.num_machines = 0; }},
      {"gpus_per_machine 0", [](PlannerQuery& q) { q.cluster.gpus_per_machine = 0; }},
      {"cores_per_machine 0", [](PlannerQuery& q) { q.cluster.cores_per_machine = 0; }},
      {"nic_bandwidth 0", [](PlannerQuery& q) { q.cluster.nic_bandwidth = 0.0; }},
      {"nic_latency < 0", [](PlannerQuery& q) { q.cluster.nic_latency = -1.0; }},
      {"pcie_bandwidth 0", [](PlannerQuery& q) { q.cluster.pcie_bandwidth = 0.0; }},
      {"3 racks on 4 machines", [](PlannerQuery& q) { q.cluster.topology.num_racks = 3; }},
      {"spine_bandwidth 0 on 2 racks",
       [](PlannerQuery& q) {
         q.cluster.topology.num_racks = 2;
         q.cluster.topology.spine_bandwidth = 0.0;
       }},
      {"no variables", [](PlannerQuery& q) { q.variables.clear(); }},
      {"fixed PS variable with 0 partitions",
       [](PlannerQuery& q) { q.variables.push_back(FixedPsVariable(0, {})); }},
      {"fixed placement names server 7 of 4",
       [](PlannerQuery& q) { q.variables.push_back(FixedPsVariable(4, {0, 1, 2, 7})); }},
      {"gpu_compute_seconds < 0", [](PlannerQuery& q) { q.gpu_compute_seconds = -1.0; }},
      {"partition_overhead_seconds < 0",
       [](PlannerQuery& q) { q.sim_config.costs.partition_overhead_seconds = -1.0; }},
      {"alpha NaN",
       [](PlannerQuery& q) {
         q.variables[0].sync.spec.alpha = std::numeric_limits<double>::quiet_NaN();
       }},
      {"alpha 5", [](PlannerQuery& q) { q.variables[0].sync.spec.alpha = 5.0; }},
      {"top-k ratio 0",
       [](PlannerQuery& q) {
         q.variables[0].sync.compression = {CompressionKind::kTopK, 0.0, true};
       }},
      {"top-k ratio -0.5",
       [](PlannerQuery& q) {
         q.variables[0].sync.compression = {CompressionKind::kTopK, -0.5, true};
       }},
      {"spine_latency < 0 on a flat cluster",
       [](PlannerQuery& q) { q.cluster.topology.spine_latency = -1.0; }},
      {"alpha -0.5", [](PlannerQuery& q) { q.variables[0].sync.spec.alpha = -0.5; }},
      {"-1 elements", [](PlannerQuery& q) { q.variables[0].sync.spec.num_elements = -1; }},
      {"0 row_elements", [](PlannerQuery& q) { q.variables[0].sync.spec.row_elements = 0; }},
      {"0 rows", [](PlannerQuery& q) { q.variables[0].rows = 0; }},
  };
  for (const bool uniform : {false, true}) {
    for (const BadQuery& bad : cases) {
      SCOPED_TRACE(std::string(bad.name) + (uniform ? ", uniform search" : ", per-variable"));
      PlannerQuery query = MakeQuery(0.02);
      if (uniform) {
        query.mode = PartitionSearchMode::kUniform;
      }
      bad.apply(query);
      PlannerService service;
      StatusOr<PlannerResult> single = service.Plan(query);
      ASSERT_FALSE(single.ok());
      EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);

      StatusOr<std::vector<PlannerResult>> batch = service.PlanMany({MakeQuery(0.2), query});
      ASSERT_FALSE(batch.ok());
      EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(batch.status().message().find("query 1"), std::string::npos)
          << batch.status().ToString();

      EXPECT_EQ(service.stats().searches, 0u);
      EXPECT_EQ(service.stats().queries, 0u);
    }
  }
}

TEST(PlannerServiceTest, AcceptsOddQueriesASearchCanRun) {
  // This does not abort a search, so it is not rejected: compute_chunks 0 (the
  // simulator clamps it).
  struct OddQuery {
    const char* name;
    void (*apply)(PlannerQuery&);
  };
  const OddQuery cases[] = {
      {"compute_chunks 0", [](PlannerQuery& q) { q.compute_chunks = 0; }},
  };
  for (const OddQuery& odd : cases) {
    SCOPED_TRACE(odd.name);
    PlannerQuery query = MakeQuery(0.02);
    odd.apply(query);
    PlannerService service;
    EXPECT_TRUE(service.Plan(query).ok());
    EXPECT_TRUE(service.PlanMany({MakeQuery(0.2), query}).ok());
  }
}

TEST(PlannerServiceTest, EveryKeyDoubleSetToNaNIsRejectedOrHits) {
  // A key compares its doubles by value and NaN equals nothing, so a NaN the service let
  // through would search again on every call. Each double a key holds, set to NaN, is
  // either rejected or answered from the cache on its second Plan.
  struct NaNField {
    const char* name;
    double* (*field)(PlannerQuery&);
  };
  const NaNField fields[] = {
      {"alpha", [](PlannerQuery& q) { return &q.variables[0].sync.spec.alpha; }},
      {"compression ratio", [](PlannerQuery& q) { return &q.variables[0].sync.compression.ratio; }},
      {"top-k compression ratio",
       [](PlannerQuery& q) {
         q.variables[0].sync.compression.kind = CompressionKind::kTopK;
         return &q.variables[0].sync.compression.ratio;
       }},
      {"nic_bandwidth", [](PlannerQuery& q) { return &q.cluster.nic_bandwidth; }},
      {"nic_latency", [](PlannerQuery& q) { return &q.cluster.nic_latency; }},
      {"pcie_bandwidth", [](PlannerQuery& q) { return &q.cluster.pcie_bandwidth; }},
      {"pcie_latency", [](PlannerQuery& q) { return &q.cluster.pcie_latency; }},
      {"spine_bandwidth, flat",
       [](PlannerQuery& q) { return &q.cluster.topology.spine_bandwidth; }},
      {"spine_latency, flat", [](PlannerQuery& q) { return &q.cluster.topology.spine_latency; }},
      {"spine_bandwidth, 2 racks",
       [](PlannerQuery& q) {
         q.cluster.topology.num_racks = 2;
         return &q.cluster.topology.spine_bandwidth;
       }},
      {"spine_latency, 2 racks",
       [](PlannerQuery& q) {
         q.cluster.topology.num_racks = 2;
         return &q.cluster.topology.spine_latency;
       }},
      {"gpu_compute_seconds", [](PlannerQuery& q) { return &q.gpu_compute_seconds; }},
      {"sparse_agg_seconds_per_element",
       [](PlannerQuery& q) { return &q.sim_config.costs.sparse_agg_seconds_per_element; }},
      {"sparse_update_seconds_per_element",
       [](PlannerQuery& q) { return &q.sim_config.costs.sparse_update_seconds_per_element; }},
      {"sparse_flush_seconds_per_element",
       [](PlannerQuery& q) { return &q.sim_config.costs.sparse_flush_seconds_per_element; }},
      {"dense_agg_seconds_per_element",
       [](PlannerQuery& q) { return &q.sim_config.costs.dense_agg_seconds_per_element; }},
      {"dense_update_seconds_per_element",
       [](PlannerQuery& q) { return &q.sim_config.costs.dense_update_seconds_per_element; }},
      {"request_overhead_seconds",
       [](PlannerQuery& q) { return &q.sim_config.costs.request_overhead_seconds; }},
      {"partition_overhead_seconds",
       [](PlannerQuery& q) { return &q.sim_config.costs.partition_overhead_seconds; }},
      {"stitch_seconds_per_partition",
       [](PlannerQuery& q) { return &q.sim_config.costs.stitch_seconds_per_partition; }},
      {"worker_dispatch_seconds_per_piece",
       [](PlannerQuery& q) { return &q.sim_config.costs.worker_dispatch_seconds_per_piece; }},
      {"gpu_dense_apply_seconds_per_element",
       [](PlannerQuery& q) { return &q.sim_config.costs.gpu_dense_apply_seconds_per_element; }},
      {"gpu_sparse_apply_seconds_per_element",
       [](PlannerQuery& q) { return &q.sim_config.costs.gpu_sparse_apply_seconds_per_element; }},
      {"collective_step_overhead_seconds",
       [](PlannerQuery& q) { return &q.sim_config.costs.collective_step_overhead_seconds; }},
      {"compress_seconds_per_element",
       [](PlannerQuery& q) { return &q.sim_config.costs.compress_seconds_per_element; }},
      {"gatherv_cross_machine_inflation",
       [](PlannerQuery& q) { return &q.sim_config.costs.gatherv_cross_machine_inflation; }},
  };
  for (const NaNField& f : fields) {
    SCOPED_TRACE(f.name);
    PlannerQuery query = MakeQuery(0.02);
    *f.field(query) = std::numeric_limits<double>::quiet_NaN();
    PlannerService service;
    StatusOr<PlannerResult> first = service.Plan(query);
    if (!first.ok()) {
      EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    StatusOr<PlannerResult> second = service.Plan(query);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.value().cache_hit);
    EXPECT_EQ(service.stats().searches, 1u);
  }
}

// A change to one field of a query.
struct QueryEdit {
  const char* name;
  void (*apply)(PlannerQuery&);
};

TEST(PlannerServiceTest, KeySeparatesEveryFieldASearchReads) {
  // The key's specification. A query that differs from the base in one field a search
  // reads gets its own key and its own search; one that differs only in fields no
  // search reads shares the base's key and is answered from the cache.
  PlannerQuery base = MakeQuery(0.02);
  base.variables.push_back(FixedPsVariable(2, {}));
  const QueryEdit read[] = {
      {"num_machines", [](PlannerQuery& q) { q.cluster.num_machines = 2; }},
      {"gpus_per_machine", [](PlannerQuery& q) { q.cluster.gpus_per_machine = 1; }},
      {"cores_per_machine", [](PlannerQuery& q) { q.cluster.cores_per_machine = 8; }},
      {"nic_bandwidth", [](PlannerQuery& q) { q.cluster.nic_bandwidth = 2e9; }},
      {"nic_latency", [](PlannerQuery& q) { q.cluster.nic_latency = 2e-6; }},
      {"pcie_bandwidth", [](PlannerQuery& q) { q.cluster.pcie_bandwidth = 8e9; }},
      {"pcie_latency", [](PlannerQuery& q) { q.cluster.pcie_latency = 2e-6; }},
      {"num_racks", [](PlannerQuery& q) { q.cluster.topology.num_racks = 2; }},
      {"spine_bandwidth", [](PlannerQuery& q) { q.cluster.topology.spine_bandwidth = 1e9; }},
      {"spine_latency", [](PlannerQuery& q) { q.cluster.topology.spine_latency = 20e-6; }},
      {"ps_local_aggregation",
       [](PlannerQuery& q) { q.sim_config.ps_local_aggregation = false; }},
      {"ps_machine_level_pulls",
       [](PlannerQuery& q) { q.sim_config.ps_machine_level_pulls = false; }},
      {"gatherv_algorithm",
       [](PlannerQuery& q) { q.sim_config.gatherv_algorithm = GathervAlgorithm::kRing; }},
      {"include_index_bytes",
       [](PlannerQuery& q) { q.sim_config.include_index_bytes = false; }},
      {"sparse_agg_seconds_per_element",
       [](PlannerQuery& q) { q.sim_config.costs.sparse_agg_seconds_per_element *= 2; }},
      {"sparse_update_seconds_per_element",
       [](PlannerQuery& q) { q.sim_config.costs.sparse_update_seconds_per_element *= 2; }},
      {"sparse_flush_seconds_per_element",
       [](PlannerQuery& q) { q.sim_config.costs.sparse_flush_seconds_per_element *= 2; }},
      {"dense_agg_seconds_per_element",
       [](PlannerQuery& q) { q.sim_config.costs.dense_agg_seconds_per_element *= 2; }},
      {"dense_update_seconds_per_element",
       [](PlannerQuery& q) { q.sim_config.costs.dense_update_seconds_per_element *= 2; }},
      {"request_overhead_seconds",
       [](PlannerQuery& q) { q.sim_config.costs.request_overhead_seconds *= 2; }},
      {"partition_overhead_seconds",
       [](PlannerQuery& q) { q.sim_config.costs.partition_overhead_seconds *= 2; }},
      {"stitch_seconds_per_partition",
       [](PlannerQuery& q) { q.sim_config.costs.stitch_seconds_per_partition *= 2; }},
      {"worker_dispatch_seconds_per_piece",
       [](PlannerQuery& q) { q.sim_config.costs.worker_dispatch_seconds_per_piece *= 2; }},
      {"gpu_dense_apply_seconds_per_element",
       [](PlannerQuery& q) { q.sim_config.costs.gpu_dense_apply_seconds_per_element *= 2; }},
      {"gpu_sparse_apply_seconds_per_element",
       [](PlannerQuery& q) { q.sim_config.costs.gpu_sparse_apply_seconds_per_element *= 2; }},
      {"collective_step_overhead_seconds",
       [](PlannerQuery& q) { q.sim_config.costs.collective_step_overhead_seconds *= 2; }},
      {"compress_seconds_per_element",
       [](PlannerQuery& q) { q.sim_config.costs.compress_seconds_per_element *= 2; }},
      {"gatherv_cross_machine_inflation",
       [](PlannerQuery& q) { q.sim_config.costs.gatherv_cross_machine_inflation *= 2; }},
      {"gatherv_ring_threshold_bytes",
       [](PlannerQuery& q) { q.sim_config.costs.gatherv_ring_threshold_bytes *= 2; }},
      {"gpu_compute_seconds", [](PlannerQuery& q) { q.gpu_compute_seconds = 8e-3; }},
      {"compute_chunks", [](PlannerQuery& q) { q.compute_chunks = 2; }},
      {"initial_partitions", [](PlannerQuery& q) { q.options.initial_partitions = 8; }},
      {"min_partitions", [](PlannerQuery& q) { q.options.min_partitions = 2; }},
      {"max_partitions", [](PlannerQuery& q) { q.options.max_partitions = 64; }},
      {"warm_start", [](PlannerQuery& q) { q.options.warm_start = true; }},
      {"placement", [](PlannerQuery& q) { q.options.placement = true; }},
      {"name", [](PlannerQuery& q) { q.variables[0].sync.spec.name = "embedding_b"; }},
      {"num_elements", [](PlannerQuery& q) { q.variables[0].sync.spec.num_elements = 320'000; }},
      {"row_elements", [](PlannerQuery& q) { q.variables[0].sync.spec.row_elements = 32; }},
      {"is_sparse", [](PlannerQuery& q) { q.variables[1].sync.spec.is_sparse = false; }},
      {"alpha bucket", [](PlannerQuery& q) { q.variables[0].sync.spec.alpha = 0.04; }},
      {"method",
       [](PlannerQuery& q) { q.variables[2].sync.method = SyncMethod::kArAllGatherv; }},
      {"compression kind",
       [](PlannerQuery& q) { q.variables[0].sync.compression.kind = CompressionKind::kInt8; }},
      {"compression ratio", [](PlannerQuery& q) { q.variables[0].sync.compression.ratio = 0.5; }},
      {"compression error_feedback",
       [](PlannerQuery& q) { q.variables[0].sync.compression.error_feedback = false; }},
      {"partitioned", [](PlannerQuery& q) { q.variables[1].partitioned = false; }},
      {"rows", [](PlannerQuery& q) { q.variables[0].rows = 5'000; }},
      {"fixed partitions", [](PlannerQuery& q) { q.variables[3].sync.partitions = 4; }},
      {"fixed placement", [](PlannerQuery& q) { q.variables[3].sync.placement = {1, 0}; }},
      {"mode", [](PlannerQuery& q) { q.mode = PartitionSearchMode::kUniform; }},
  };
  const QueryEdit unread[] = {
      {"a partitioned variable's placement",
       [](PlannerQuery& q) { q.variables[0].sync.placement = {0, 1, 2, 3}; }},
      {"a partitioned variable's partitions, without a warm start",
       [](PlannerQuery& q) { q.variables[0].sync.partitions = 8; }},
      {"a target's drift flag, without a warm start",
       [](PlannerQuery& q) { q.variables[1].drifted = false; }},
      {"a fixed variable's drift flag", [](PlannerQuery& q) { q.variables[3].drifted = false; }},
      {"an alpha in the same bucket",
       [](PlannerQuery& q) { q.variables[0].sync.spec.alpha = 0.0201; }},
  };

  PlannerService service;
  ASSERT_FALSE(service.Plan(base).value().cache_hit);
  for (const QueryEdit& edit : read) {
    SCOPED_TRACE(edit.name);
    PlannerQuery query = base;
    edit.apply(query);
    EXPECT_FALSE(service.KeyFor(query) == service.KeyFor(base));
    const uint64_t searches = service.stats().searches;
    EXPECT_FALSE(service.Plan(query).value().cache_hit);
    EXPECT_EQ(service.stats().searches, searches + 1);
  }
  for (const QueryEdit& edit : unread) {
    SCOPED_TRACE(edit.name);
    PlannerQuery query = base;
    edit.apply(query);
    EXPECT_TRUE(service.KeyFor(query) == service.KeyFor(base));
    EXPECT_TRUE(service.Plan(query).value().cache_hit);
  }
}

TEST(PlannerServiceTest, ApplyPlanToVariablesReplicatesRowCapAndPlacementGate) {
  PlannerQuery query = MakeQuery(0.02);
  PartitionPlan plan = PartitionPlan::Uniform(1);
  plan.Set("embedding", 20'000);  // above the 10'000-row cap
  plan.Set("softmax", 4);
  plan.SetPlacement("softmax", {0, 1, 2, 3});
  plan.SetPlacement("embedding", {0, 1});  // stale length: must be dropped by the cap
  std::vector<VariableSync> applied = ApplyPlanToVariables(query.variables, plan);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0].partitions, 10'000);  // row-capped
  EXPECT_TRUE(applied[0].placement.empty());
  EXPECT_EQ(applied[1].partitions, 4);
  EXPECT_EQ(applied[1].placement, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(applied[2].partitions, 1);  // non-partitioned passes through
}

// The names a plan overrides, in the plan's order.
std::vector<std::string> OverriddenNames(const PartitionPlan& plan) {
  std::vector<std::string> names;
  for (const auto& [name, partitions] : plan.overrides()) {
    names.push_back(name);
  }
  return names;
}

TEST(SearchPlanTest, PerVariableSearchCoversExactlyThePartitionedSparseVariables) {
  PlannerQuery query = MakeQuery(0.02);
  // A dense variable routed to PS in a partitioner scope (an engine override can do
  // this): partitioned, but not a target. And a sparse PS variable outside any scope.
  VariableSync dense_ps;
  dense_ps.spec = {"dense_ps", 40'000, 64, false, 1.0};
  dense_ps.method = SyncMethod::kPs;
  query.variables.push_back({dense_ps, /*partitioned=*/true, /*rows=*/625});
  query.variables.push_back(FixedPsVariable(2, {}));

  const std::vector<PartitionSearchVariable> targets = SearchTargets(query);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].name, "embedding");
  EXPECT_EQ(targets[0].alpha, 0.02);
  EXPECT_EQ(targets[0].num_elements, 640'000);
  EXPECT_EQ(targets[0].max_partitions, 10'000);
  EXPECT_EQ(targets[1].name, "softmax");
  EXPECT_EQ(targets[1].alpha, 0.05);
  EXPECT_EQ(targets[1].num_elements, 320'000);
  EXPECT_EQ(targets[1].max_partitions, 5'000);

  SimulationArena arena;
  const PartitionPlanSearchResult result = SearchPlan(query, &arena);
  EXPECT_EQ(OverriddenNames(result.plan), (std::vector<std::string>{"embedding", "softmax"}));
  EXPECT_GE(result.rounds, 1);

  query.mode = PartitionSearchMode::kUniform;
  EXPECT_TRUE(SearchTargets(query).empty());
}

TEST(SearchPlanTest, WarmStartResumesFromTheQuerysPartitionsAndDriftFlags) {
  PlannerQuery query = MakeQuery(0.02);
  query.options.warm_start = true;
  query.variables[0].sync.partitions = 8;
  query.variables[1].sync.partitions = 2;
  query.variables[1].drifted = false;

  const std::vector<PartitionSearchVariable> targets = SearchTargets(query);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].previous_partitions, 8);
  EXPECT_TRUE(targets[0].drifted);
  EXPECT_EQ(targets[1].previous_partitions, 2);
  EXPECT_FALSE(targets[1].drifted);

  // The search resumes from {embedding:8, softmax:2}: no uniform sweep, and the
  // baseline is that plan's measured time.
  SimulationArena arena;
  const PartitionPlanSearchResult result = SearchPlan(query, &arena);
  EXPECT_TRUE(result.warm_started);
  EXPECT_TRUE(result.uniform.samples.empty());
  PartitionPlan previous = PartitionPlan::Uniform(1);
  previous.Set("embedding", 8);
  previous.Set("softmax", 2);
  IterationSimulator sim(query.cluster, ApplyPlanToVariables(query.variables, previous),
                         query.gpu_compute_seconds, query.compute_chunks, query.sim_config,
                         &arena);
  EXPECT_EQ(result.uniform_seconds, sim.MeasureIterationSeconds());

  // The warm-start state is part of the key only when warm_start is set.
  PlannerService service;
  PlannerQuery redrifted = query;
  redrifted.variables[1].drifted = true;
  PlannerQuery moved = query;
  moved.variables[0].sync.partitions = 16;
  EXPECT_FALSE(service.KeyFor(query) == service.KeyFor(redrifted));
  EXPECT_FALSE(service.KeyFor(query) == service.KeyFor(moved));
  query.options.warm_start = false;
  redrifted.options.warm_start = false;
  moved.options.warm_start = false;
  EXPECT_EQ(service.KeyFor(query), service.KeyFor(redrifted));
  EXPECT_EQ(service.KeyFor(query), service.KeyFor(moved));
}

TEST(SearchPlanTest, PerVariableQueryWithoutTargetsGetsTheUniformAnswer) {
  // Both searched variables dense (routed to PS by an override): a per-variable query
  // has nothing to search one by one, so it runs the uniform sweep under the uniform
  // query's key.
  PlannerQuery per_variable = MakeQuery(1.0, 1.0);
  per_variable.variables[0].sync.spec.is_sparse = false;
  per_variable.variables[1].sync.spec.is_sparse = false;
  PlannerQuery uniform = per_variable;
  uniform.mode = PartitionSearchMode::kUniform;
  EXPECT_TRUE(SearchTargets(per_variable).empty());

  PlannerService service;
  EXPECT_EQ(service.KeyFor(per_variable), service.KeyFor(uniform));
  const PlannerResult first = service.Plan(per_variable).value();
  const PlannerResult second = service.Plan(uniform).value();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);

  SimulationArena arena;
  const PartitionPlanSearchResult swept = SearchPlan(uniform, &arena);
  ExpectPlansIdentical(first.search.plan, swept.plan);
  EXPECT_TRUE(first.search.plan.overrides().empty());
  EXPECT_EQ(first.search.seconds, swept.seconds);
  EXPECT_EQ(first.search.evaluations, swept.evaluations);
  EXPECT_EQ(first.search.uniform.samples, swept.uniform.samples);
  EXPECT_EQ(first.search.rounds, 0);
}

TEST(SearchPlanTest, UniformAnswerReportsItsSecondsAsUnplaced) {
  // A uniform search adopts no placement, so its placement-oblivious baseline is its
  // own time: through SearchPlan, and through the service on a miss and on a hit.
  PlannerQuery query = MakeQuery(0.02);
  query.mode = PartitionSearchMode::kUniform;

  SimulationArena arena;
  const PartitionPlanSearchResult swept = SearchPlan(query, &arena);
  EXPECT_GT(swept.seconds, 0.0);
  EXPECT_EQ(swept.unplaced_seconds, swept.seconds);

  PlannerService service;
  const PlannerResult miss = service.Plan(query).value();
  const PlannerResult hit = service.Plan(query).value();
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(miss.search.unplaced_seconds, miss.search.seconds);
  EXPECT_EQ(hit.search.unplaced_seconds, hit.search.seconds);
}

TEST(PlannerServiceTest, ArenaPoolGrowsOnDemandAndRetainsUpToCap) {
  PlannerServiceOptions options;
  options.max_pooled_arenas = 2;
  PlannerService service(options);
  {
    ArenaPool::Lease a = service.AcquireArena();
    ArenaPool::Lease b = service.AcquireArena();
    ArenaPool::Lease c = service.AcquireArena();
    EXPECT_NE(a.get(), nullptr);
    EXPECT_NE(b.get(), nullptr);
    EXPECT_NE(c.get(), nullptr);
    EXPECT_EQ(service.stats().total_arenas, 3u);
    EXPECT_EQ(service.stats().pooled_arenas, 0u);
  }
  // Releases past the cap are dropped, not pooled.
  EXPECT_EQ(service.stats().pooled_arenas, 2u);
  EXPECT_EQ(service.stats().total_arenas, 2u);
  // A pooled arena is reused, not reallocated.
  ArenaPool::Lease reused = service.AcquireArena();
  EXPECT_NE(reused.get(), nullptr);
  EXPECT_EQ(service.stats().total_arenas, 2u);
  EXPECT_EQ(service.stats().pooled_arenas, 1u);
}

// ---- runner integration ----

WordLmModel::Options SmallLm(uint64_t seed) {
  return {.vocab_size = 120, .embedding_dim = 8, .hidden_dim = 12,
          .batch_per_rank = 16, .seed = seed};
}

ParallaxConfig FastConfig() {
  ParallaxConfig config;
  config.learning_rate = 0.4f;
  config.search_mode = PartitionSearchMode::kPerVariable;
  return config;
}

TEST(PlannerServiceRunnerTest, SharedPlannerRunnerIsBitIdenticalToPrivateSearch) {
  // Two identical sessions, one routed through a shared planner: every loss must match
  // bitwise (plans never affect numerics; the service must not either), and the second
  // tenant's startup search must be served from the cache.
  auto service = std::make_shared<PlannerService>();
  WordLmModel model_private(SmallLm(601));
  WordLmModel model_shared(SmallLm(601));
  GraphRunner private_runner(model_private.graph(), model_private.loss(),
                             ResourceSpec::Homogeneous(2, 2), FastConfig());
  ParallaxConfig shared_config = FastConfig();
  shared_config.planner = service;
  GraphRunner shared_runner(model_shared.graph(), model_shared.loss(),
                            ResourceSpec::Homogeneous(2, 2), shared_config);
  Rng rng_a(61);
  Rng rng_b(61);
  for (int step = 0; step < 12; ++step) {
    float a = private_runner.Step(model_private.TrainShards(4, rng_a));
    float b = shared_runner.Step(model_shared.TrainShards(4, rng_b));
    EXPECT_EQ(a, b) << "step " << step;
  }
  EXPECT_EQ(shared_runner.partition_plan().ToString(),
            private_runner.partition_plan().ToString());
  EXPECT_EQ(service->stats().searches, 1u);

  // A third tenant with the same model shape hits the cache outright.
  WordLmModel model_third(SmallLm(601));
  GraphRunner third_runner(model_third.graph(), model_third.loss(),
                           ResourceSpec::Homogeneous(2, 2), shared_config);
  Rng rng_c(61);
  third_runner.Step(model_third.TrainShards(4, rng_c));
  EXPECT_EQ(service->stats().searches, 1u);
  EXPECT_GE(service->stats().cache.hits, 1u);
  EXPECT_EQ(third_runner.partition_plan().ToString(),
            shared_runner.partition_plan().ToString());
}

TEST(PlannerServiceRunnerTest, MonitoredSharedPlannerRunnerMatchesUnmonitoredPrivate) {
  // The adaptive loop re-searches through the service; numerics must stay bit-identical
  // to an unmonitored private-search run regardless of what the planner answers.
  auto service = std::make_shared<PlannerService>();
  WordLmModel model_plain(SmallLm(602));
  WordLmModel model_monitored(SmallLm(602));
  GraphRunner plain(model_plain.graph(), model_plain.loss(),
                    ResourceSpec::Homogeneous(2, 2), FastConfig());
  ParallaxConfig monitored_config = FastConfig();
  monitored_config.planner = service;
  AdaptivePartitioningPolicy policy;
  policy.check_interval = 4;
  policy.warmup_steps = 4;
  monitored_config.adaptive_partitioning = policy;
  GraphRunner monitored(model_monitored.graph(), model_monitored.loss(),
                        ResourceSpec::Homogeneous(2, 2), monitored_config);
  Rng rng_a(62);
  Rng rng_b(62);
  for (int step = 0; step < 16; ++step) {
    float a = plain.Step(model_plain.TrainShards(4, rng_a));
    float b = monitored.Step(model_monitored.TrainShards(4, rng_b));
    EXPECT_EQ(a, b) << "step " << step;
  }
}

// Everything the planning seam decides over one drifting run: the start-up search,
// every adaptation verdict, every rescale, and what they did to losses and the clock.
struct SeamRun {
  std::vector<float> losses;
  std::optional<PartitionSearchResult> partition_search;
  std::optional<PartitionPlanSearchResult> plan_search;
  std::vector<AdaptationVerdict> verdicts;
  std::vector<RescaleEvent> rescales;
  double simulated_seconds = 0.0;
};

// The drift scenario with adaptation on for 30 steps, then a 2 -> 4 -> 2 machine
// rescale — one search at each of the runner's three call sites.
SeamRun RunDriftAndRescale(PartitionSearchMode mode, std::shared_ptr<PlannerService> planner) {
  WordLmModel model(DriftingLm(/*seed=*/81, /*drift_step=*/10));
  AdaptivePartitioningPolicy policy;
  policy.ewma_decay = 0.5;
  policy.drift_threshold = 0.3;
  policy.hysteresis = 0.02;
  policy.warmup_steps = 4;
  policy.check_interval = 4;
  policy.cooldown_steps = 8;
  RunnerBuilder builder(model.graph(), model.loss());
  builder.WithResources("m0:0,1;m1:0,1")
      .WithLearningRate(0.3f)
      .WithSyncCosts(AccumulationDominatedCosts())
      .WithCompute(2e-3, 4)
      .WithSearch({})
      .WithSearchMode(mode)
      .WithAdaptivePartitioning(policy);
  if (planner != nullptr) {
    builder.WithPlanner(std::move(planner));
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  GraphRunner& runner = *built.value();
  SeamRun run;
  Rng rng(83);
  for (int step = 0; step < 30; ++step) {
    run.losses.push_back(runner.Step(model.TrainShards(4, rng, step)));
  }
  EXPECT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 2)).ok());
  EXPECT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 2)).ok());
  run.partition_search = runner.partition_search();
  run.plan_search = runner.plan_search();
  EXPECT_NE(runner.sparsity_monitor(), nullptr);
  if (runner.sparsity_monitor() != nullptr) {
    run.verdicts = runner.sparsity_monitor()->trail();
  }
  run.rescales = runner.rescale_trail();
  run.simulated_seconds = runner.simulated_seconds();
  return run;
}

// One uniform sweep, field by field: samples, fit, chosen P and its prediction.
void ExpectSameSweep(const PartitionSearchResult& a, const PartitionSearchResult& b) {
  EXPECT_EQ(a.best_partitions, b.best_partitions);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.fit.ok, b.fit.ok);
  EXPECT_EQ(a.fit.theta0, b.fit.theta0);
  EXPECT_EQ(a.fit.theta1, b.fit.theta1);
  EXPECT_EQ(a.fit.theta2, b.fit.theta2);
  EXPECT_EQ(a.fit.rmse, b.fit.rmse);
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
}

void ExpectSameDecisions(const SeamRun& shared, const SeamRun& priv) {
  EXPECT_EQ(shared.losses, priv.losses);

  // Start-up: the whole search, as the service returned it.
  ASSERT_EQ(shared.partition_search.has_value(), priv.partition_search.has_value());
  if (priv.partition_search.has_value()) {
    ExpectSameSweep(*shared.partition_search, *priv.partition_search);
  }
  ASSERT_EQ(shared.plan_search.has_value(), priv.plan_search.has_value());
  if (priv.plan_search.has_value()) {
    ExpectPlansIdentical(shared.plan_search->plan, priv.plan_search->plan);
    EXPECT_EQ(shared.plan_search->seconds, priv.plan_search->seconds);
    EXPECT_EQ(shared.plan_search->uniform_seconds, priv.plan_search->uniform_seconds);
    ExpectSameSweep(shared.plan_search->uniform, priv.plan_search->uniform);
    EXPECT_EQ(shared.plan_search->rounds, priv.plan_search->rounds);
    EXPECT_EQ(shared.plan_search->evaluations, priv.plan_search->evaluations);
    EXPECT_EQ(shared.plan_search->warm_started, priv.plan_search->warm_started);
    EXPECT_EQ(shared.plan_search->unplaced_seconds, priv.plan_search->unplaced_seconds);
  }

  ASSERT_EQ(shared.verdicts.size(), priv.verdicts.size());
  for (size_t i = 0; i < priv.verdicts.size(); ++i) {
    SCOPED_TRACE("verdict " + std::to_string(i));
    const AdaptationVerdict& a = shared.verdicts[i];
    const AdaptationVerdict& b = priv.verdicts[i];
    EXPECT_EQ(a.step, b.step);
    ExpectPlansIdentical(a.best_plan, b.best_plan);
    EXPECT_EQ(a.current_seconds, b.current_seconds);
    EXPECT_EQ(a.best_seconds, b.best_seconds);
    EXPECT_EQ(a.migration_seconds, b.migration_seconds);
    EXPECT_EQ(a.adopted, b.adopted);
  }

  ASSERT_EQ(shared.rescales.size(), priv.rescales.size());
  for (size_t i = 0; i < priv.rescales.size(); ++i) {
    SCOPED_TRACE("rescale " + std::to_string(i));
    const RescaleEvent& a = shared.rescales[i];
    const RescaleEvent& b = priv.rescales[i];
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.from_machines, b.from_machines);
    EXPECT_EQ(a.to_machines, b.to_machines);
    EXPECT_EQ(a.from_ranks, b.from_ranks);
    EXPECT_EQ(a.to_ranks, b.to_ranks);
    ExpectPlansIdentical(a.from_plan, b.from_plan);
    ExpectPlansIdentical(a.to_plan, b.to_plan);
    EXPECT_EQ(a.incumbent_seconds, b.incumbent_seconds);
    EXPECT_EQ(a.adopted_seconds, b.adopted_seconds);
    EXPECT_EQ(a.migration_seconds, b.migration_seconds);
  }

  EXPECT_EQ(shared.simulated_seconds, priv.simulated_seconds);
}

// The scenario must reach every call site with something to decide: an adopted and a
// second verdict, and rescales that move the plan.
void ExpectSeamExercised(const SeamRun& run) {
  EXPECT_TRUE(run.partition_search.has_value());
  EXPECT_GE(run.verdicts.size(), 2u);
  EXPECT_TRUE(std::any_of(run.verdicts.begin(), run.verdicts.end(),
                          [](const AdaptationVerdict& v) { return v.adopted; }));
  ASSERT_EQ(run.rescales.size(), 2u);
  for (const RescaleEvent& event : run.rescales) {
    EXPECT_FALSE(event.to_plan == event.from_plan) << event.from_plan.ToString();
  }
}

PlannerServiceOptions ExactAlphas() {
  PlannerServiceOptions options;
  options.alpha_quantum = 0.0;
  return options;
}

TEST(PlannerServiceRunnerTest, SharedAndPrivatePlannersDecideAlikeUniform) {
  const SeamRun priv = RunDriftAndRescale(PartitionSearchMode::kUniform, nullptr);
  const SeamRun shared = RunDriftAndRescale(
      PartitionSearchMode::kUniform, std::make_shared<PlannerService>(ExactAlphas()));
  ExpectSeamExercised(priv);
  EXPECT_FALSE(priv.plan_search.has_value());
  ExpectSameDecisions(shared, priv);
}

TEST(PlannerServiceRunnerTest, SharedAndPrivatePlannersDecideAlikePerVariable) {
  const SeamRun priv = RunDriftAndRescale(PartitionSearchMode::kPerVariable, nullptr);
  const SeamRun shared = RunDriftAndRescale(
      PartitionSearchMode::kPerVariable, std::make_shared<PlannerService>(ExactAlphas()));
  ExpectSeamExercised(priv);
  EXPECT_TRUE(priv.plan_search.has_value());
  ExpectSameDecisions(shared, priv);
}

}  // namespace
}  // namespace parallax
