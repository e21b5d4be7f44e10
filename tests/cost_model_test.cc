#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/base/rng.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/sim/cluster.h"

namespace parallax {
namespace {

TEST(CostModelTest, FitRecoversExactThetas) {
  std::vector<std::pair<int, double>> samples;
  for (int p : {1, 2, 4, 8, 16, 32, 64}) {
    samples.emplace_back(p, 0.05 + 1.2 / p + 0.003 * p);
  }
  CostModelFit fit = FitCostModel(samples);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.theta0, 0.05, 1e-9);
  EXPECT_NEAR(fit.theta1, 1.2, 1e-9);
  EXPECT_NEAR(fit.theta2, 0.003, 1e-9);
  EXPECT_NEAR(fit.ContinuousOptimum(), std::sqrt(1.2 / 0.003), 1e-6);
}

TEST(CostModelTest, FitNeedsThreeSamples) {
  EXPECT_FALSE(FitCostModel({{1, 1.0}, {2, 0.8}}).ok);
}

// Property sweep: the search must land within 25% iteration time of the true optimum for
// a range of convex cost landscapes.
class SearchParamTest : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(SearchParamTest, FindsNearOptimalPartitionCount) {
  auto [theta0, theta1, theta2] = GetParam();
  auto measure = [=](int p) { return theta0 + theta1 / p + theta2 * p; };
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 4096;
  PartitionSearchResult result = SearchPartitions(measure, options);
  double best_possible = measure(static_cast<int>(std::round(std::sqrt(theta1 / theta2))));
  EXPECT_LE(measure(result.best_partitions), best_possible * 1.25)
      << "chose P=" << result.best_partitions;
}

INSTANTIATE_TEST_SUITE_P(
    Landscapes, SearchParamTest,
    ::testing::Values(std::make_tuple(0.1, 2.0, 0.001),    // optimum ~45
                      std::make_tuple(0.05, 8.0, 0.0005),  // optimum ~126
                      std::make_tuple(0.2, 0.5, 0.01),     // optimum ~7
                      std::make_tuple(0.3, 0.05, 0.02),    // optimum ~1.6 (small P)
                      std::make_tuple(0.02, 30.0, 0.0002)  // optimum ~387 (large P)
                      ));

TEST(SearchTest, SamplingRunCountIsSmall) {
  // The paper: "Parallax spends at most 20 minutes to get sampling results of at most
  // 5 runs" — the double/halve schedule keeps the sample count logarithmic, not linear.
  auto measure = [](int p) { return 0.05 + 6.0 / p + 0.0008 * p; };
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  PartitionSearchResult result = SearchPartitions(measure, options);
  EXPECT_LE(result.samples.size(), 8u);
  EXPECT_GE(result.samples.size(), 3u);
}

TEST(SearchTest, StopsDoublingWhenTimeIncreases) {
  // Sharp minimum at 16: doubling past 32 should stop immediately.
  auto measure = [](int p) { return std::fabs(std::log2(p) - 4.0) + 0.1; };
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  PartitionSearchResult result = SearchPartitions(measure, options);
  for (const auto& [p, t] : result.samples) {
    EXPECT_LE(p, 128) << "kept doubling past the rise";
  }
}

TEST(SearchTest, RespectsMinAndMaxBounds) {
  auto measure = [](int p) { return 1.0 / p; };  // monotone decreasing: wants P = inf
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 64;
  PartitionSearchResult result = SearchPartitions(measure, options);
  EXPECT_LE(result.best_partitions, 64);
  for (const auto& [p, t] : result.samples) {
    EXPECT_LE(p, 64);
    EXPECT_GE(p, 1);
  }
}

TEST(SearchTest, NoisyMeasurementsStillConverge) {
  Rng rng(55);
  auto measure = [&](int p) {
    double noise = 1.0 + 0.03 * rng.NextGaussian();
    return (0.1 + 3.0 / p + 0.002 * p) * noise;
  };
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  PartitionSearchResult result = SearchPartitions(measure, options);
  // True optimum ~39; accept a generous band under 3% noise.
  EXPECT_GE(result.best_partitions, 8);
  EXPECT_LE(result.best_partitions, 256);
}

// ---- PartitionPlan -------------------------------------------------------------------

TEST(PartitionPlanTest, UniformPlansAndOverridesRoundTrip) {
  PartitionPlan uniform = PartitionPlan::Uniform(4);
  EXPECT_TRUE(uniform.uniform());
  EXPECT_EQ(uniform.For("anything"), 4);
  EXPECT_EQ(uniform.MaxPartitions(), 4);
  EXPECT_EQ(uniform.ToString(), "P=4");
  EXPECT_EQ(uniform, PartitionPlan::Uniform(4));
  EXPECT_NE(uniform, PartitionPlan::Uniform(5));

  PartitionPlan plan;
  plan.Set("emb", 16);
  plan.Set("softmax", 2);
  plan.Set("softmax", 3);  // last Set wins
  EXPECT_FALSE(plan.uniform());
  EXPECT_EQ(plan.For("emb"), 16);
  EXPECT_EQ(plan.For("softmax"), 3);
  EXPECT_EQ(plan.For("unnamed"), 1);  // default
  EXPECT_EQ(plan.MaxPartitions(), 16);
  EXPECT_EQ(plan.ToString(), "{emb:16, softmax:3; default P=1}");
  EXPECT_NE(plan, uniform);
}

TEST(PartitionPlanTest, PlacementsRoundTripAndPrint) {
  PartitionPlan plan;
  plan.Set("emb", 4);
  plan.SetPlacement("emb", {0, 1, 2, 3});
  EXPECT_FALSE(plan.uniform());
  ASSERT_NE(plan.PlacementFor("emb"), nullptr);
  EXPECT_EQ(*plan.PlacementFor("emb"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(plan.PlacementFor("other"), nullptr);
  EXPECT_EQ(plan.ToString(), "{emb:4@(0,1,2,3); default P=1}");

  PartitionPlan copy = plan;
  EXPECT_EQ(copy, plan);
  copy.SetPlacement("emb", {0, 0, 2, 3});
  EXPECT_NE(copy, plan);
  copy.SetPlacement("emb", {});  // empty clears back to round-robin
  EXPECT_EQ(copy.PlacementFor("emb"), nullptr);

  // A placement alone — no count override — is still a deviation from uniform: its
  // shards no longer follow round-robin.
  PartitionPlan placed_only;
  placed_only.SetPlacement("solo", {1});
  EXPECT_FALSE(placed_only.uniform());
  EXPECT_EQ(placed_only.ToString(), "{solo:1@(1); default P=1}");
}

// ---- Per-variable search (SearchPartitionPlan) ---------------------------------------

// A separable synthetic landscape: each variable contributes its own Equation-1 curve,
// so the joint optimum is each variable at its own continuous optimum — exactly the
// structure a single uniform P cannot fit when the theta1s differ.
struct SeparableLandscape {
  std::vector<PartitionSearchVariable> variables;
  std::vector<double> theta1;
  double theta2 = 0.002;

  double operator()(const PartitionPlan& plan) const {
    double seconds = 0.1;
    for (size_t v = 0; v < variables.size(); ++v) {
      double p = plan.For(variables[v].name);
      seconds += theta1[v] / p + theta2 * p;
    }
    return seconds;
  }
};

SeparableLandscape SkewedLandscape() {
  SeparableLandscape landscape;
  // Variable "a" wants sqrt(2.0/0.002) ~ 32 pieces; "b" wants sqrt(0.02/0.002) ~ 3.
  // Weights (alpha * elements) mirror the theta1 ratio, as they do in the simulator.
  landscape.variables = {{.name = "a", .alpha = 0.5, .num_elements = 4'000'000},
                         {.name = "b", .alpha = 0.5, .num_elements = 40'000}};
  landscape.theta1 = {2.0, 0.02};
  return landscape;
}

TEST(SearchPartitionPlanTest, FindsPerVariableOptimaAndBeatsBestUniform) {
  SeparableLandscape landscape = SkewedLandscape();
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 512;
  PartitionPlanSearchResult result =
      SearchPartitionPlan(landscape, landscape.variables, ClusterSpec(), options);

  EXPECT_GE(result.plan.For("a"), 16);
  EXPECT_LE(result.plan.For("a"), 64);
  EXPECT_GE(result.plan.For("b"), 1);
  EXPECT_LE(result.plan.For("b"), 8);

  // Brute-force best uniform P for comparison.
  double best_uniform = landscape(PartitionPlan::Uniform(1));
  for (int p = 2; p <= 512; ++p) {
    best_uniform = std::min(best_uniform, landscape(PartitionPlan::Uniform(p)));
  }
  EXPECT_LT(result.seconds, best_uniform);
  // And the reported uniform baseline is the best uniform the sweep found (the fitted
  // search may land near, not exactly at, the brute-force optimum).
  EXPECT_GE(result.uniform_seconds, best_uniform * 0.999);
  EXPECT_LT(result.seconds, result.uniform_seconds);
}

TEST(SearchPartitionPlanTest, DeterministicAcrossRuns) {
  SeparableLandscape landscape = SkewedLandscape();
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 512;
  PartitionPlanSearchResult first =
      SearchPartitionPlan(landscape, landscape.variables, ClusterSpec(), options);
  PartitionPlanSearchResult second =
      SearchPartitionPlan(landscape, landscape.variables, ClusterSpec(), options);
  EXPECT_EQ(first.plan, second.plan);
  EXPECT_EQ(first.seconds, second.seconds);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.rounds, second.rounds);
}

TEST(SearchPartitionPlanTest, RespectsPerVariableCaps) {
  SeparableLandscape landscape = SkewedLandscape();
  landscape.variables[0].max_partitions = 4;  // "a" wants ~32 but only has 4 rows
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 512;
  PartitionPlanSearchResult result =
      SearchPartitionPlan(landscape, landscape.variables, ClusterSpec(), options);
  EXPECT_LE(result.plan.For("a"), 4);
  for (const auto& [name, partitions] : result.plan.overrides()) {
    EXPECT_GE(partitions, 1);
  }
}

TEST(SearchPartitionPlanTest, SymmetricVariablesStayTogether) {
  // Identical variables: the per-variable search must not invent heterogeneity where
  // none pays (the coordinate margin suppresses noise-chasing moves).
  SeparableLandscape landscape;
  landscape.variables = {{.name = "x", .alpha = 0.3, .num_elements = 1'000'000},
                         {.name = "y", .alpha = 0.3, .num_elements = 1'000'000}};
  landscape.theta1 = {0.5, 0.5};
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 512;
  PartitionPlanSearchResult result =
      SearchPartitionPlan(landscape, landscape.variables, ClusterSpec(), options);
  EXPECT_EQ(result.plan.For("x"), result.plan.For("y"));
}

TEST(SearchPartitionPlanTest, MemoizationKeepsSamplingBudgetSmall) {
  // The whole point of the paper's procedure is a handful of sampling runs; the
  // per-variable generalization must stay in the same regime — a few runs per
  // variable per descent round, with repeats served from the memo.
  SeparableLandscape landscape = SkewedLandscape();
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 512;
  PartitionPlanSearchResult result =
      SearchPartitionPlan(landscape, landscape.variables, ClusterSpec(), options);
  EXPECT_LE(result.evaluations, 40);
  EXPECT_GE(result.evaluations, 5);
}

// ---- Warm start ----------------------------------------------------------------------

TEST(SearchPartitionPlanTest, WarmStartSkipsSweepAndKeepsQuality) {
  SeparableLandscape landscape = SkewedLandscape();
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 512;
  PartitionPlanSearchResult cold =
      SearchPartitionPlan(landscape, landscape.variables, ClusterSpec(), options);
  ASSERT_FALSE(cold.warm_started);

  // Re-search after drift confined to "a": every previous count is known, only "a"
  // is marked drifted — the uniform sweep and the closed-form seed must not run.
  std::vector<PartitionSearchVariable> warm_vars = landscape.variables;
  for (PartitionSearchVariable& v : warm_vars) {
    v.previous_partitions = cold.plan.For(v.name);
    v.drifted = v.name == "a";
  }
  PartitionSearchOptions warm_options = options;
  warm_options.warm_start = true;
  PartitionPlanSearchResult warm =
      SearchPartitionPlan(landscape, warm_vars, ClusterSpec(), warm_options);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_TRUE(warm.uniform.samples.empty()) << "uniform sweep ran despite warm start";
  EXPECT_LT(warm.evaluations, cold.evaluations);
  // Same landscape, started from the cold optimum: the warm plan cannot be worse.
  EXPECT_LE(warm.seconds, cold.seconds * 1.0001);
}

TEST(SearchPartitionPlanTest, WarmStartNeedsEveryPreviousCount) {
  SeparableLandscape landscape = SkewedLandscape();
  std::vector<PartitionSearchVariable> vars = landscape.variables;
  vars[0].previous_partitions = 32;
  vars[1].previous_partitions = 0;  // unknown: the warm start must disable itself
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 512;
  options.warm_start = true;
  PartitionPlanSearchResult result =
      SearchPartitionPlan(landscape, vars, ClusterSpec(), options);
  EXPECT_FALSE(result.warm_started);
  EXPECT_FALSE(result.uniform.samples.empty());
}

// ---- Placement search (the 2-rack demo scenario) -------------------------------------

// 2 racks x 2 machines over an oversubscribed spine — the topology of
// examples/topology_placement.cpp. The row caps (3 and 2 pieces) are chosen so the
// historical round-robin necessarily stacks the heavy embedding piece and a softmax
// piece on machine 0 while machine 3 idles: exactly the imbalance a searched placement
// can undo.
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
  spec.topology.spine_bandwidth = 1e9;  // 2:1 oversubscription per rack
  spec.topology.spine_latency = 5e-6;
  return spec;
}

std::vector<PartitionSearchVariable> TwoRackSearchVariables() {
  return {{.name = "emb", .alpha = 0.3, .num_elements = 4'000'000, .max_partitions = 3},
          {.name = "softmax", .alpha = 0.5, .num_elements = 600'000, .max_partitions = 2}};
}

// Measures a candidate plan on the simulated clock, the way the runner's search does:
// the searched variables as PS shards (counts row-capped, placement applied when its
// length matches), a fresh simulator per sample over one shared arena.
double MeasureTwoRackPlan(const PartitionPlan& plan, SimulationArena* arena) {
  const ClusterSpec spec = TwoRackSpec();
  std::vector<VariableSync> variables;
  for (const PartitionSearchVariable& searched : TwoRackSearchVariables()) {
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
  IterationSimConfig config;
  config.ps_local_aggregation = true;
  config.ps_machine_level_pulls = true;
  IterationSimulator sim(spec, std::move(variables), 2e-3, 4, config, arena);
  return sim.MeasureIterationSeconds();
}

TEST(PlacementSearchTest, TwoRackPlacedPlanBeatsBestObliviousPlan) {
  PartitionSearchOptions options;
  options.initial_partitions = 4;
  options.max_partitions = 16;

  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    return MeasureTwoRackPlan(plan, &arena);
  };

  // The placement-oblivious baseline: the identical search with the placement pass off.
  PartitionPlanSearchResult oblivious =
      SearchPartitionPlan(measure, TwoRackSearchVariables(), TwoRackSpec(), options);
  EXPECT_TRUE(oblivious.plan.placements().empty());

  PartitionSearchOptions placed_options = options;
  placed_options.placement = true;
  PartitionPlanSearchResult placed =
      SearchPartitionPlan(measure, TwoRackSearchVariables(), TwoRackSpec(),
                          placed_options);

  // The counts phases are identical, so the oblivious optimum IS the placed search's
  // round-robin baseline — and the adopted placement must beat it on the simulated
  // clock by a real margin (the tentpole's payoff).
  ASSERT_FALSE(placed.plan.placements().empty()) << placed.plan.ToString();
  EXPECT_EQ(placed.unplaced_seconds, oblivious.seconds);
  EXPECT_LT(placed.seconds, oblivious.seconds * (1.0 - 0.01))
      << "placed " << placed.plan.ToString() << " at " << placed.seconds
      << "s vs oblivious " << oblivious.plan.ToString() << " at " << oblivious.seconds;

  // Deterministic: the same search twice adopts the same placement.
  SimulationArena second_arena;
  auto second_measure = [&](const PartitionPlan& plan) {
    return MeasureTwoRackPlan(plan, &second_arena);
  };
  PartitionPlanSearchResult again =
      SearchPartitionPlan(second_measure, TwoRackSearchVariables(), TwoRackSpec(),
                          placed_options);
  EXPECT_EQ(again.plan, placed.plan);
  EXPECT_EQ(again.seconds, placed.seconds);
}

TEST(SearchTest, PredictionInterpolatesWithinSampledRange) {
  auto measure = [](int p) { return 0.1 + 4.0 / p + 0.001 * p; };
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  PartitionSearchResult result = SearchPartitions(measure, options);
  int sampled_min = result.samples[0].first;
  int sampled_max = result.samples[0].first;
  for (const auto& [p, t] : result.samples) {
    sampled_min = std::min(sampled_min, p);
    sampled_max = std::max(sampled_max, p);
  }
  EXPECT_GE(result.best_partitions, sampled_min);
  EXPECT_LE(result.best_partitions, sampled_max);
}

}  // namespace
}  // namespace parallax
