// GraphRunner::Step runs a synchronous step's replicas at once, one rank per task on the
// kernel pool (PARALLAX_THREADS lanes). The fan-out must change nothing but wall time:
//  - a runner stepped through GraphRunner::Step matches a twin driven layer by layer
//    through its own engines — View(), a serial rank loop on one scratch, ApplyStep —
//    in every loss and in the bytes of every variable of WorkerView(), also across a
//    Rescale that grows the rank count mid-run;
//  - a warm fan-out step allocates at most once more than the twin's serial step: the
//    ParallelFor batch (none with one lane, where the ranks run inline);
//  - a warm step allocates fewer bytes than one PS table: the step-start view hands
//    out the engines' buffers instead of copying them;
//  - the first step, which reuses its sampling passes as the sampled ranks' results,
//    matches a twin that recomputes every rank, also after a deferred RestoreFrom.
// CMake registers this binary at PARALLAX_THREADS=1, 2 and 4, so the fan-out runs on
// several lanes on any host.
//
// Allocations are counted through tests/alloc_counter.h (every form of operator new,
// aligned and nothrow ones included); the counters are read inside explicit windows only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/core/api.h"
#include "src/graph/checkpoint.h"
#include "src/models/trainable.h"
#include "tests/alloc_counter.h"

namespace parallax {
namespace {

constexpr float kLr = 0.3f;
constexpr int kSteps = 10;

// Drives a runner one layer at a time through its own engines, serially, in the shape
// of pxbench's layered replay: the step-start view composed from every engine's View(),
// every rank's RunStepInto on one scratch, then each engine's ApplyStep. The runner's
// first Step (sampling, search, engine preparation) must already have run.
class SerialTwin {
 public:
  SerialTwin(GraphRunner* runner, const Graph* graph, NodeId loss)
      : runner_(runner), executor_(graph), loss_(loss) {
    // Engine order of first appearance in the plan, as the runner composes and applies.
    for (const std::string& name : runner_->plan().engines) {
      if (std::find(engines_.begin(), engines_.end(), name) == engines_.end()) {
        engines_.push_back(name);
      }
    }
  }

  float Step(const std::vector<FeedMap>& feeds) {
    VariableStore view;
    for (const std::string& name : engines_) {
      VariableStore part = runner_->engine(name)->View();
      for (const auto& [v, value] : part.values()) {
        view.Set(v, value);
      }
    }
    results_.resize(feeds.size());
    float loss = 0.0f;
    for (size_t r = 0; r < feeds.size(); ++r) {
      executor_.RunStepInto(view, feeds[r], loss_, &scratch_, &results_[r]);
      loss += results_[r].loss;
    }
    for (const std::string& name : engines_) {
      runner_->engine(name)->ApplyStep(results_, kLr);
    }
    return loss / static_cast<float>(feeds.size());
  }

 private:
  GraphRunner* runner_;
  Executor executor_;
  NodeId loss_;
  std::vector<std::string> engines_;
  ExecScratch scratch_;
  std::vector<StepResult> results_;
};

std::unique_ptr<GraphRunner> Build(RunnerBuilder builder) {
  auto built = builder.WithLearningRate(kLr).Build();
  PX_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Every variable of both worker views, byte for byte.
void ExpectSameBytes(const Graph& graph, const GraphRunner& fanout, const GraphRunner& twin,
                     int step) {
  const VariableStore a = fanout.WorkerView();
  const VariableStore b = twin.WorkerView();
  for (size_t v = 0; v < graph.variables().size(); ++v) {
    const Tensor& x = a.Get(static_cast<int>(v));
    const Tensor& y = b.Get(static_cast<int>(v));
    ASSERT_EQ(x.shape(), y.shape());
    EXPECT_EQ(std::memcmp(x.floats().data(), y.floats().data(),
                          static_cast<size_t>(x.num_elements()) * sizeof(float)),
              0)
        << graph.variables()[v].name << " differs after step " << step;
  }
}

// Steps `fanout` through GraphRunner::Step and `twin` through the serial layered
// replay on the same feeds for kSteps steps; with `rescale_to` set, both rescale to it
// before step kSteps / 2. Losses and worker views must agree exactly after every step.
template <typename Model>
void ExpectFanoutMatchesSerialTwin(Model& model, GraphRunner& fanout, GraphRunner& twin,
                                   const std::optional<ResourceSpec>& rescale_to) {
  const Graph& graph = *model.graph();
  Rng rng(6060);
  std::vector<FeedMap> feeds = model.TrainShards(fanout.num_ranks(), rng);
  EXPECT_EQ(fanout.Step(feeds), twin.Step(feeds)) << "first step";
  ASSERT_EQ(fanout.partition_plan(), twin.partition_plan());
  SerialTwin serial(&twin, model.graph(), model.loss());
  for (int step = 1; step < kSteps; ++step) {
    if (rescale_to.has_value() && step == kSteps / 2) {
      ASSERT_TRUE(fanout.Rescale(*rescale_to).ok());
      ASSERT_TRUE(twin.Rescale(*rescale_to).ok());
      ASSERT_EQ(fanout.num_ranks(), rescale_to->total_gpus());
      ASSERT_EQ(fanout.partition_plan(), twin.partition_plan());
    }
    feeds = model.TrainShards(fanout.num_ranks(), rng);
    EXPECT_EQ(fanout.Step(feeds), serial.Step(feeds)) << "step " << step;
    ExpectSameBytes(graph, fanout, twin, step);
  }
}

TEST(ReplicaFanoutTest, WordLmMatchesSerialTwinAcrossRescale) {
  std::fprintf(stderr, "kernel pool lanes: %d\n", GlobalSparsePool().num_threads());
  WordLmModel model({.vocab_size = 300, .embedding_dim = 16, .hidden_dim = 24,
                     .batch_per_rank = 16, .seed = 1601});
  auto builder = [&] {
    return RunnerBuilder(model.graph(), model.loss())
        .WithResources(ResourceSpec::Homogeneous(4, 2));
  };
  std::unique_ptr<GraphRunner> fanout = Build(builder());
  std::unique_ptr<GraphRunner> twin = Build(builder());
  // With two or more lanes, growing 8 -> 12 ranks mid-run reallocates the warm
  // per-rank scratches and adds cold ones.
  ExpectFanoutMatchesSerialTwin(model, *fanout, *twin, ResourceSpec::Homogeneous(6, 2));
}

TEST(ReplicaFanoutTest, EmbeddingSkewMatchesSerialTwinWithPlacement) {
  EmbeddingSkewModel::Options options;
  options.hot_vocab = 512;
  options.batch_per_rank = 32;
  options.seed = 1602;
  EmbeddingSkewModel model(options);
  // 2 racks x 2 machines x 2 GPUs behind the default spine, with per-variable
  // partition and placement search in the accumulation-dominated regime of pxbench's
  // skew workload.
  ClusterSpec hardware = ClusterSpec::Paper();
  hardware.topology.num_racks = 2;
  SyncCostParams costs;
  costs.sparse_agg_seconds_per_element = 400e-9;
  costs.sparse_update_seconds_per_element = 20e-9;
  costs.sparse_flush_seconds_per_element = 2e-9;
  costs.worker_dispatch_seconds_per_piece = 150e-6;
  auto builder = [&] {
    return RunnerBuilder(model.graph(), model.loss())
        .WithResources(ResourceSpec::Homogeneous(4, 2))
        .WithHardware(hardware)
        .WithSearchMode(PartitionSearchMode::kPerVariable)
        .WithPlacementSearch(true)
        .WithSyncCosts(costs)
        .WithCompute(1e-3, 4);
  };
  std::unique_ptr<GraphRunner> fanout = Build(builder());
  std::unique_ptr<GraphRunner> twin = Build(builder());
  ExpectFanoutMatchesSerialTwin(model, *fanout, *twin, std::nullopt);
}

// The first Step samples up to four ranks on the values it starts from, keeps those
// passes as the ranks' results and fans out only the rest. `twin` recomputes them all:
// it takes its own first step to initialize, its engines reload `start` (the values that
// step began from), and the serial layered replay runs the step again over every rank.
// Loss and every variable byte must agree.
template <typename Model>
void ExpectFirstStepMatchesRecomputingTwin(Model& model, GraphRunner& runner,
                                           GraphRunner& twin, const VariableStore& start) {
  Rng rng(6062);
  const std::vector<FeedMap> feeds = model.TrainShards(runner.num_ranks(), rng);
  const float loss = runner.Step(feeds);
  twin.Step(feeds);
  for (const std::string& name : twin.plan().engines) {
    twin.engine(name)->LoadValues(start);
  }
  SerialTwin serial(&twin, model.graph(), model.loss());
  EXPECT_EQ(loss, serial.Step(feeds));
  ExpectSameBytes(*model.graph(), runner, twin, /*step=*/0);
}

TEST(ReplicaFanoutTest, FirstStepMatchesTwinThatRecomputesEveryRank) {
  WordLmModel model({.vocab_size = 300, .embedding_dim = 16, .hidden_dim = 24,
                     .batch_per_rank = 16, .seed = 1604});
  // 8 ranks: four sampled, four fanned out. 2 ranks: both sampled, nothing fanned out.
  for (const ResourceSpec& resources :
       {ResourceSpec::Homogeneous(4, 2), ResourceSpec::Homogeneous(1, 2)}) {
    auto builder = [&] {
      return RunnerBuilder(model.graph(), model.loss()).WithResources(resources);
    };
    std::unique_ptr<GraphRunner> runner = Build(builder());
    std::unique_ptr<GraphRunner> twin = Build(builder());
    SCOPED_TRACE(testing::Message() << runner->num_ranks() << " ranks");
    ExpectFirstStepMatchesRecomputingTwin(model, *runner, *twin,
                                          VariableStore::InitFrom(*model.graph()));
  }
}

TEST(ReplicaFanoutTest, FirstStepAfterDeferredRestoreMatchesTwinThatRecomputesEveryRank) {
  WordLmModel model({.vocab_size = 300, .embedding_dim = 16, .hidden_dim = 24,
                     .batch_per_rank = 16, .seed = 1605});
  auto builder = [&] {
    return RunnerBuilder(model.graph(), model.loss())
        .WithResources(ResourceSpec::Homogeneous(4, 2));
  };
  // A checkpoint three steps into a run; the restored runners sample its values.
  const std::string path = std::string(::testing::TempDir()) + "/replica_fanout_first_step_" +
                           std::to_string(::getpid()) + ".px";
  {
    std::unique_ptr<GraphRunner> source = Build(builder());
    Rng rng(6063);
    for (int s = 0; s < 3; ++s) {
      source->Step(model.TrainShards(source->num_ranks(), rng));
    }
    ASSERT_TRUE(source->CheckpointTo(path).ok());
  }
  StatusOr<VariableStore> start = LoadCheckpoint(*model.graph(), path);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  std::unique_ptr<GraphRunner> runner = Build(builder());
  std::unique_ptr<GraphRunner> twin = Build(builder());
  ASSERT_TRUE(runner->RestoreFrom(path).ok());
  ASSERT_TRUE(twin->RestoreFrom(path).ok());
  std::remove(path.c_str());
  ExpectFirstStepMatchesRecomputingTwin(model, *runner, *twin, start.value());
}

TEST(ReplicaFanoutTest, WarmFanoutStepAllocatesAtMostTheBatch) {
  // pxbench's lm session: WordLm at its options on 4 machines x 2 GPUs.
  WordLmModel model({.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
                     .batch_per_rank = 32, .seed = 1603});
  auto builder = [&] {
    return RunnerBuilder(model.graph(), model.loss())
        .WithResources(ResourceSpec::Homogeneous(4, 2));
  };
  std::unique_ptr<GraphRunner> fanout = Build(builder());
  std::unique_ptr<GraphRunner> twin = Build(builder());
  Rng rng(6061);
  constexpr int kWarm = 4;
  constexpr int kMeasured = 10;
  std::vector<std::vector<FeedMap>> feeds;
  for (int s = 0; s < kWarm + kMeasured; ++s) {
    feeds.push_back(model.TrainShards(fanout->num_ranks(), rng));
  }
  fanout->Step(feeds[0]);
  twin->Step(feeds[0]);
  SerialTwin serial(twin.get(), model.graph(), model.loss());
  // Warm-up: every scratch, result and pool lane's packing buffer reaches its size.
  for (int s = 1; s < kWarm; ++s) {
    EXPECT_EQ(fanout->Step(feeds[static_cast<size_t>(s)]),
              serial.Step(feeds[static_cast<size_t>(s)]));
  }

  // Per-step counts, compared by their medians: a pool lane's first matmul grows its
  // packing buffer once, and ParallelFor's batch queue takes a new block every few dozen
  // batches, from the twin's sparse kernels as much as from the fan-out; neither is a
  // per-step cost.
  std::vector<size_t> fanout_allocs;
  std::vector<size_t> fanout_bytes;
  std::vector<size_t> serial_allocs;
  for (int s = kWarm; s < kWarm + kMeasured; ++s) {
    const std::vector<FeedMap>& step_feeds = feeds[static_cast<size_t>(s)];
    size_t before = AllocCount();
    const size_t bytes_before = AllocBytes();
    const float fanout_loss = fanout->Step(step_feeds);
    fanout_allocs.push_back(AllocCount() - before);
    fanout_bytes.push_back(AllocBytes() - bytes_before);
    before = AllocCount();
    const float serial_loss = serial.Step(step_feeds);
    serial_allocs.push_back(AllocCount() - before);
    EXPECT_EQ(fanout_loss, serial_loss) << "step " << s;
  }
  auto median = [](std::vector<size_t> counts) {
    std::sort(counts.begin(), counts.end());
    return counts[counts.size() / 2];
  };
  const size_t fanout_median = median(fanout_allocs);
  const size_t serial_median = median(serial_allocs);
  const size_t bytes_median = median(fanout_bytes);
  std::fprintf(stderr,
               "allocations per warm step (median): fan-out %zu (%zu bytes), serial twin %zu\n",
               fanout_median, bytes_median, serial_median);
  // The smaller PS table, embedding, is 2000 x 32 floats: a step that copied any PS
  // table into its view would allocate at least that much.
  EXPECT_LT(bytes_median, size_t{2000 * 32 * sizeof(float)});
  // The one allowed extra is ParallelFor's batch; with one lane the ranks run inline
  // and there is none.
  EXPECT_LE(fanout_median, serial_median + 1);
  if (GlobalSparsePool().num_threads() == 1) {
    EXPECT_EQ(fanout_median, serial_median);
  }
}

}  // namespace
}  // namespace parallax
