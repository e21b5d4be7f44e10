// The SyncEngine seam: registry round-trips, builder validation, per-variable engine
// routing, the async engine reached through the runner, and elastic re-partitioning
// via re-Prepare.
#include <gtest/gtest.h>

#include "src/ar/ar_numeric.h"
#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/models/trainable.h"
#include "src/ps/ps_async.h"
#include "src/ps/ps_numeric.h"
#include "src/service/planner_service.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

WordLmModel::Options SmallLm(uint64_t seed) {
  return {.vocab_size = 100, .embedding_dim = 6, .hidden_dim = 10,
          .batch_per_rank = 12, .seed = seed};
}

RunnerBuilder SmallBuilder(WordLmModel& model) {
  RunnerBuilder builder(model.graph(), model.loss());
  builder.WithResources("m0:0,1;m1:0,1")
      .WithLearningRate(0.3f)
      .WithSearch({});
  return builder;
}

TEST(SyncEngineRegistryTest, BuiltinsAreRegistered) {
  SyncEngineRegistry& registry = SyncEngineRegistry::Global();
  EXPECT_TRUE(registry.Contains("ps"));
  EXPECT_TRUE(registry.Contains("ar"));
  EXPECT_TRUE(registry.Contains("async_ps"));
  EXPECT_TRUE(registry.Contains("topk_ps"));
  EXPECT_TRUE(registry.Contains("int8_ps"));
  EXPECT_FALSE(registry.Contains("nccl"));
}

TEST(SyncEngineRegistryTest, CreateCheckedNamesTheUnknownEngineAndTheAlternatives) {
  // The checked factory turns a typo into an actionable Status: NotFound, carrying the
  // offending name and the registered alternatives, instead of a bare nullptr.
  WordLmModel model(SmallLm(931));
  SyncEngineEnv env{model.graph()};
  auto engine = SyncEngineRegistry::Global().CreateChecked("warp_drive", env);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
  EXPECT_NE(engine.status().ToString().find("warp_drive"), std::string::npos);
  EXPECT_NE(engine.status().ToString().find("ps"), std::string::npos);

  auto ok = SyncEngineRegistry::Global().CreateChecked("ps", env);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value()->name(), "ps");
}

TEST(SyncEngineRegistryTest, DuplicateRegistrationIsRejectedWithTheOffendingName) {
  Status status = SyncEngineRegistry::Global().Register(
      "ps", [](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
        return std::make_unique<PsNumericEngine>(env.graph);
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("'ps'"), std::string::npos);
  // The original registration is untouched.
  WordLmModel model(SmallLm(932));
  SyncEngineEnv env{model.graph()};
  auto engine = SyncEngineRegistry::Global().CreateChecked("ps", env);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value()->CostMethod(GradKind::kSparse), SyncMethod::kPs);
}

TEST(SyncEngineRegistryTest, RejectsEmptyNameAndNullFactory) {
  Status empty_name = SyncEngineRegistry::Global().Register(
      "", [](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
        return std::make_unique<PsNumericEngine>(env.graph);
      });
  EXPECT_EQ(empty_name.code(), StatusCode::kInvalidArgument);
  Status null_factory = SyncEngineRegistry::Global().Register("null_factory", nullptr);
  ASSERT_FALSE(null_factory.ok());
  EXPECT_EQ(null_factory.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(null_factory.ToString().find("null_factory"), std::string::npos);
  EXPECT_FALSE(SyncEngineRegistry::Global().Contains("null_factory"));
}

TEST(SyncEngineRegistryTest, RegisteredStrategyRoundTripsThroughBuilder) {
  // A custom registration is reachable by name from RunnerBuilder::WithEngine and
  // trains exactly like the engine it wraps.
  const std::string name = "ps_roundtrip";
  if (!SyncEngineRegistry::Global().Contains(name)) {
    ASSERT_TRUE(SyncEngineRegistry::Global()
                    .Register(name,
                              [](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
                                return std::make_unique<PsNumericEngine>(env.graph);
                              })
                    .ok());
  }
  std::vector<std::string> names = SyncEngineRegistry::Global().Names();
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());

  auto train = [&](const std::string& engine) {
    WordLmModel model(SmallLm(921));
    auto runner = SmallBuilder(model).WithEngine("*", engine).Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    Rng rng(91);
    float loss = 0.0f;
    for (int i = 0; i < 4; ++i) {
      loss = runner.value()->Step(model.TrainShards(4, rng));
    }
    for (size_t v = 0; v < runner.value()->plan().engines.size(); ++v) {
      EXPECT_EQ(runner.value()->plan().engines[v], engine);
    }
    return std::make_pair(loss, runner.value()->simulated_seconds());
  };
  auto [loss_custom, time_custom] = train(name);
  auto [loss_ps, time_ps] = train("ps");
  EXPECT_EQ(loss_custom, loss_ps);
  EXPECT_EQ(time_custom, time_ps);
}

TEST(RunnerBuilderTest, ValidatesInputs) {
  WordLmModel model(SmallLm(922));
  EXPECT_FALSE(RunnerBuilder(nullptr, model.loss()).WithResources("a:0").Build().ok());
  EXPECT_FALSE(RunnerBuilder(model.graph(), model.loss()).Build().ok());  // no resources
  EXPECT_FALSE(
      RunnerBuilder(model.graph(), model.loss()).WithResources("not-a-spec").Build().ok());
  EXPECT_FALSE(RunnerBuilder(model.graph(), model.loss())
                   .WithResources("a:0,1;b:0")  // heterogeneous
                   .Build()
                   .ok());
  auto unknown_engine = RunnerBuilder(model.graph(), model.loss())
                            .WithResources("a:0,1;b:0,1")
                            .WithEngine("emb*", "warp_drive")
                            .Build();
  ASSERT_FALSE(unknown_engine.ok());
  EXPECT_NE(unknown_engine.status().ToString().find("warp_drive"), std::string::npos);
  EXPECT_TRUE(RunnerBuilder(model.graph(), model.loss())
                  .WithResources("a:0,1;b:0,1")
                  .WithEngine("emb*", "async_ps")
                  .Build()
                  .ok());
}

TEST(RunnerBuilderTest, RejectsSearchOptionsTheFirstStepCannotRun) {
  // Each of these would abort the first Step's partition search, so Build rejects it.
  WordLmModel model(SmallLm(933));
  auto build_with = [&](PartitionSearchOptions search) {
    return RunnerBuilder(model.graph(), model.loss())
        .WithResources("a:0,1;b:0,1")
        .WithSearch(search)
        .Build();
  };
  PartitionSearchOptions no_min;
  no_min.min_partitions = 0;
  PartitionSearchOptions inverted;
  inverted.min_partitions = 8;
  inverted.max_partitions = 4;
  for (const PartitionSearchOptions& search : {no_min, inverted}) {
    auto runner = build_with(search);
    ASSERT_FALSE(runner.ok());
    EXPECT_EQ(runner.status().code(), StatusCode::kInvalidArgument)
        << runner.status().ToString();
  }
}

TEST(RunnerBuilderTest, RejectsTimingInputsTheFirstStepCannotRun) {
  // Each of these would abort the first Step's simulation, or its shared planner's
  // query, so Build rejects it with or without a planner. The machine and GPU counts
  // come from the resources, which Build checks on their own.
  WordLmModel model(SmallLm(934));
  struct TimingInputs {
    ClusterSpec hardware = ClusterSpec::Paper();
    double gpu_compute_seconds = 4e-3;
    SyncCostParams costs;
  };
  struct BadInput {
    const char* name;
    void (*apply)(TimingInputs&);
  };
  const BadInput cases[] = {
      {"cores_per_machine 0", [](TimingInputs& t) { t.hardware.cores_per_machine = 0; }},
      {"nic_bandwidth 0", [](TimingInputs& t) { t.hardware.nic_bandwidth = 0.0; }},
      {"pcie_latency < 0", [](TimingInputs& t) { t.hardware.pcie_latency = -1.0; }},
      {"spine_bandwidth 0 on 2 racks",
       [](TimingInputs& t) {
         t.hardware.topology.num_racks = 2;
         t.hardware.topology.spine_bandwidth = 0.0;
       }},
      {"gpu_compute_seconds < 0", [](TimingInputs& t) { t.gpu_compute_seconds = -1.0; }},
      {"partition_overhead_seconds < 0",
       [](TimingInputs& t) { t.costs.partition_overhead_seconds = -1.0; }},
  };
  auto build_with = [&](const TimingInputs& inputs, bool shared) {
    RunnerBuilder builder(model.graph(), model.loss());
    builder.WithResources("a:0,1;b:0,1")
        .WithHardware(inputs.hardware)
        .WithCompute(inputs.gpu_compute_seconds, 4)
        .WithSyncCosts(inputs.costs);
    if (shared) {
      builder.WithPlanner(std::make_shared<PlannerService>());
    }
    return builder.Build();
  };
  for (const bool shared : {false, true}) {
    for (const BadInput& bad : cases) {
      SCOPED_TRACE(std::string(bad.name) + (shared ? ", shared planner" : ""));
      TimingInputs inputs;
      bad.apply(inputs);
      auto runner = build_with(inputs, shared);
      ASSERT_FALSE(runner.ok());
      EXPECT_EQ(runner.status().code(), StatusCode::kInvalidArgument)
          << runner.status().ToString();
    }
    EXPECT_TRUE(build_with(TimingInputs(), shared).ok());
  }
}

TEST(AsyncEngineTest, ReachableFromRunnerAndAppliesEveryPush) {
  // The satellite fix: PushGradients is now on the runner's step path. One runner step
  // with R ranks performs R pushes in rank order; values move (training progresses) and
  // the run is deterministic.
  auto train = [] {
    WordLmModel model(SmallLm(923));
    auto runner = SmallBuilder(model).WithEngine("*", "async_ps").Build();
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    Rng rng(93);
    float first = runner.value()->Step(model.TrainShards(4, rng));
    float last = first;
    for (int i = 0; i < 39; ++i) {
      last = runner.value()->Step(model.TrainShards(4, rng));
    }
    auto* engine = dynamic_cast<AsyncPsEngine*>(runner.value()->engine("async_ps"));
    EXPECT_NE(engine, nullptr);
    EXPECT_EQ(engine->pushes_applied(), 40 * 4);
    EXPECT_LT(last, first * 0.8f);  // async SGD still learns
    return last;
  };
  EXPECT_EQ(train(), train());  // deterministic arrival order => deterministic run
}

TEST(AsyncEngineTest, StepDiffersFromSynchronousPsTrajectory) {
  // Rank r+1's push lands on values rank r already moved — after one step the values
  // must differ from the synchronous aggregated update (the staleness of section 2.1).
  WordLmModel async_model(SmallLm(924));
  WordLmModel sync_model(SmallLm(924));
  auto async_runner = SmallBuilder(async_model).WithEngine("*", "async_ps").Build();
  auto sync_runner = SmallBuilder(sync_model)
                         .WithEngine("*", "ps")
                         .WithAggregation(AggregationMethod::kSum, AggregationMethod::kSum)
                         .Build();
  ASSERT_TRUE(async_runner.ok() && sync_runner.ok());
  Rng rng(94);
  std::vector<FeedMap> shards = async_model.TrainShards(4, rng);
  async_runner.value()->Step(shards);
  sync_runner.value()->Step(shards);
  VariableStore async_view = async_runner.value()->WorkerView();
  VariableStore sync_view = sync_runner.value()->WorkerView();
  float max_diff = 0.0f;
  for (size_t v = 0; v < async_model.graph()->variables().size(); ++v) {
    max_diff = std::max(max_diff, MaxAbsDiff(async_view.Get(static_cast<int>(v)),
                                             sync_view.Get(static_cast<int>(v))));
  }
  EXPECT_GT(max_diff, 1e-6f);
}

TEST(RepartitionTest, RePrepareSwapsPartitionsAndPreservesValues) {
  WordLmModel model(SmallLm(925));
  auto runner = SmallBuilder(model).WithPartitionPlan(PartitionPlan::Uniform(2)).Build();
  ASSERT_TRUE(runner.ok());
  Rng rng(95);
  for (int i = 0; i < 3; ++i) {
    runner.value()->Step(model.TrainShards(4, rng));
  }
  VariableStore before = runner.value()->WorkerView();

  runner.value()->Repartition(PartitionPlan::Uniform(5));

  EXPECT_EQ(runner.value()->partition_plan(), PartitionPlan::Uniform(5));
  VariableStore after = runner.value()->WorkerView();
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    EXPECT_TRUE(AllClose(before.Get(static_cast<int>(v)), after.Get(static_cast<int>(v)),
                         0.0f))
        << "re-Prepare must preserve values: " << model.graph()->variables()[v].name;
  }
  // The new layout shows up in the plan and the transformed graph.
  for (const VariableSync& sync : runner.value()->assignment()) {
    if (sync.method == SyncMethod::kPs && sync.spec.name == "embedding") {
      EXPECT_EQ(sync.partitions, 5);
    }
  }
  EXPECT_NE(runner.value()->distributed_graph().FindPiece(0, 4), nullptr);
}

TEST(RepartitionTest, TrainingTrajectoryUnchangedAcrossRepartition) {
  // Partitioning is layout, not math: a run that re-partitions mid-training must keep
  // producing the exact losses of an untouched run.
  auto train = [](bool repartition) {
    WordLmModel model(SmallLm(926));
    auto runner = RunnerBuilder(model.graph(), model.loss())
                      .WithResources("m0:0,1;m1:0,1")
                      .WithLearningRate(0.3f)
                      .WithPartitionPlan(PartitionPlan::Uniform(2))
                      .Build();
    EXPECT_TRUE(runner.ok());
    Rng rng(96);
    std::vector<float> losses;
    for (int i = 0; i < 8; ++i) {
      if (repartition && i == 4) {
        runner.value()->Repartition(PartitionPlan::Uniform(7));
      }
      losses.push_back(runner.value()->Step(model.TrainShards(4, rng)));
    }
    return losses;
  };
  EXPECT_EQ(train(true), train(false));
}

TEST(RepartitionTest, PlacementRoundTripPreservesValuesAndStampsAssignment) {
  // A placement is layout metadata: pinning the embedding's shards to explicit
  // servers, moving them, and releasing them back to round-robin must preserve every
  // variable bit-for-bit at each hop, and the placement must be visible in the
  // SyncPlan exactly while a plan carries it.
  WordLmModel model(SmallLm(929));
  auto runner = SmallBuilder(model).WithPartitionPlan(PartitionPlan::Uniform(2)).Build();
  ASSERT_TRUE(runner.ok());
  Rng rng(98);
  for (int i = 0; i < 3; ++i) {
    runner.value()->Step(model.TrainShards(4, rng));
  }
  VariableStore before = runner.value()->WorkerView();

  auto expect_unchanged = [&](const char* hop) {
    VariableStore view = runner.value()->WorkerView();
    for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
      EXPECT_TRUE(AllClose(before.Get(static_cast<int>(v)),
                           view.Get(static_cast<int>(v)), 0.0f))
          << hop << ": " << model.graph()->variables()[v].name;
    }
  };
  auto embedding_placement = [&]() -> const std::vector<int>& {
    for (const VariableSync& sync : runner.value()->assignment()) {
      if (sync.spec.name == "embedding") {
        return sync.placement;
      }
    }
    static const std::vector<int> none;
    return none;
  };

  PartitionPlan pinned = PartitionPlan::Uniform(2);
  pinned.SetPlacement("embedding", {1, 0});  // both pieces, swapped vs round-robin
  runner.value()->Repartition(pinned);
  expect_unchanged("pin");
  EXPECT_EQ(embedding_placement(), (std::vector<int>{1, 0}));

  PartitionPlan moved = PartitionPlan::Uniform(2);
  moved.SetPlacement("embedding", {1, 1});  // migrate piece 1 across machines
  runner.value()->Repartition(moved);
  expect_unchanged("move");
  EXPECT_EQ(embedding_placement(), (std::vector<int>{1, 1}));

  runner.value()->Repartition(PartitionPlan::Uniform(2));  // release to round-robin
  expect_unchanged("release");
  EXPECT_TRUE(embedding_placement().empty());

  // The layout metadata round-trips through the runner's adopted plan too.
  EXPECT_EQ(runner.value()->partition_plan().PlacementFor("embedding"), nullptr);
}

TEST(RepartitionTest, TrajectoryUnchangedAcrossPlacementRoundTrip) {
  // Placement changes mid-training must never touch the math: a run that pins, moves,
  // and releases shard placements produces the exact losses of an untouched run.
  auto train = [](bool place) {
    WordLmModel model(SmallLm(930));
    auto runner = RunnerBuilder(model.graph(), model.loss())
                      .WithResources("m0:0,1;m1:0,1")
                      .WithLearningRate(0.3f)
                      .WithPartitionPlan(PartitionPlan::Uniform(2))
                      .Build();
    EXPECT_TRUE(runner.ok());
    Rng rng(99);
    std::vector<float> losses;
    for (int i = 0; i < 9; ++i) {
      if (place && (i == 3 || i == 6)) {
        PartitionPlan plan = PartitionPlan::Uniform(2);
        if (i == 3) {
          plan.SetPlacement("embedding", {1, 0});
        }  // i == 6 releases the placement again
        runner.value()->Repartition(plan);
      }
      losses.push_back(runner.value()->Step(model.TrainShards(4, rng)));
    }
    return losses;
  };
  EXPECT_EQ(train(true), train(false));
}

TEST(SyncEngineInterfaceTest, PreparedEnginesExposeManagedViews) {
  // Direct interface use: Prepare routes, View exposes exactly the managed variables.
  WordLmModel model(SmallLm(927));
  SyncPlan plan;
  plan.variables.resize(model.graph()->variables().size());
  plan.engines.assign(model.graph()->variables().size(), "ar");
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    plan.variables[v].spec.name = model.graph()->variables()[v].name;
    if (model.graph()->variables()[v].name == "embedding") {
      plan.engines[v] = "ps";
    }
  }
  plan.num_ranks = 2;

  SyncEngineEnv env{model.graph()};
  auto ps_or = SyncEngineRegistry::Global().CreateChecked("ps", env);
  auto ar_or = SyncEngineRegistry::Global().CreateChecked("ar", env);
  ASSERT_TRUE(ps_or.ok() && ar_or.ok());
  std::unique_ptr<SyncEngine>& ps = ps_or.value();
  std::unique_ptr<SyncEngine>& ar = ar_or.value();
  ps->Prepare(plan);
  ar->Prepare(plan);
  VariableStore ps_view = ps->View();
  VariableStore ar_view = ar->View();
  size_t total = 0;
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    int key = static_cast<int>(v);
    bool is_embedding = model.graph()->variables()[v].name == "embedding";
    EXPECT_EQ(ps_view.Contains(key), is_embedding);
    EXPECT_EQ(ar_view.Contains(key), !is_embedding);
    total += ps_view.Contains(key) + ar_view.Contains(key);
  }
  EXPECT_EQ(total, model.graph()->variables().size());
}

}  // namespace
}  // namespace parallax
