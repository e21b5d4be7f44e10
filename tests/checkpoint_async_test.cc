#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/graph/checkpoint.h"
#include "src/models/trainable.h"
#include "src/ps/ps_async.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// The on-disk header layout of a v2 checkpoint (src/graph/checkpoint.cc): the
// corruption tests below craft hostile files word by word.
constexpr uint64_t kMagic = 0x70784c4158ull;
constexpr uint64_t kVersion = 2;

void WriteWords(const std::string& path, const std::vector<uint64_t>& words) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(words.data(), sizeof(uint64_t), words.size(), f), words.size());
  std::fclose(f);
}

WordLmModel::Options TinyLm(uint64_t seed) {
  return {.vocab_size = 40, .embedding_dim = 4, .hidden_dim = 6,
          .batch_per_rank = 8, .seed = seed};
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  WordLmModel model({.vocab_size = 40, .embedding_dim = 4, .hidden_dim = 6,
                     .batch_per_rank = 8, .seed = 901});
  VariableStore store = VariableStore::InitFrom(*model.graph());
  // Perturb so the checkpoint differs from the initializers.
  store.GetMutable(0).mutable_floats()[3] = 42.5f;
  std::string path = TempPath("ckpt_roundtrip.px");
  ASSERT_TRUE(SaveCheckpoint(*model.graph(), store, path).ok());
  auto loaded = LoadCheckpoint(*model.graph(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    EXPECT_TRUE(AllClose(loaded.value().Get(static_cast<int>(v)),
                         store.Get(static_cast<int>(v)), 0.0f));
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsMissingFile) {
  WordLmModel model({.vocab_size = 40, .embedding_dim = 4, .hidden_dim = 6,
                     .batch_per_rank = 8, .seed = 902});
  EXPECT_FALSE(LoadCheckpoint(*model.graph(), TempPath("does_not_exist.px")).ok());
}

TEST(CheckpointTest, LoadRejectsWrongGraph) {
  WordLmModel small({.vocab_size = 40, .embedding_dim = 4, .hidden_dim = 6,
                     .batch_per_rank = 8, .seed = 903});
  WordLmModel big({.vocab_size = 80, .embedding_dim = 4, .hidden_dim = 6,
                   .batch_per_rank = 8, .seed = 903});
  std::string path = TempPath("ckpt_mismatch.px");
  ASSERT_TRUE(
      SaveCheckpoint(*small.graph(), VariableStore::InitFrom(*small.graph()), path).ok());
  auto loaded = LoadCheckpoint(*big.graph(), path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsGarbage) {
  WordLmModel model({.vocab_size = 40, .embedding_dim = 4, .hidden_dim = 6,
                     .batch_per_rank = 8, .seed = 904});
  std::string path = TempPath("ckpt_garbage.px");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a checkpoint", f);
  std::fclose(f);
  EXPECT_FALSE(LoadCheckpoint(*model.graph(), path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MetaRoundTrip) {
  WordLmModel model(TinyLm(907));
  VariableStore store = VariableStore::InitFrom(*model.graph());
  std::string path = TempPath("ckpt_meta.px");
  CheckpointMeta saved;
  saved.step = 12345;
  saved.simulated_seconds = 67.875;  // exactly representable: bits must round-trip
  ASSERT_TRUE(SaveCheckpoint(*model.graph(), store, path, saved).ok());
  CheckpointMeta loaded_meta;
  auto loaded = LoadCheckpoint(*model.graph(), path, &loaded_meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded_meta.step, 12345);
  EXPECT_EQ(loaded_meta.simulated_seconds, 67.875);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsTruncatedDataSection) {
  // Cut a valid checkpoint mid-data: the loader must return a clean Status for every
  // possible truncation point — never UB, never a partial store.
  WordLmModel model(TinyLm(908));
  VariableStore store = VariableStore::InitFrom(*model.graph());
  std::string path = TempPath("ckpt_truncated.px");
  ASSERT_TRUE(SaveCheckpoint(*model.graph(), store, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(full, CheckpointFileBytes(*model.graph()));
  for (long keep : {full - 1, full / 2, full / 4, 5 * 8L, 3 * 8L, 8L, 1L}) {
    std::FILE* in = std::fopen(path.c_str(), "rb");
    std::vector<char> bytes(static_cast<size_t>(keep));
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in), bytes.size());
    std::fclose(in);
    std::string cut = TempPath("ckpt_cut.px");
    std::FILE* out = std::fopen(cut.c_str(), "wb");
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    std::fclose(out);
    auto loaded = LoadCheckpoint(*model.graph(), cut);
    EXPECT_FALSE(loaded.ok()) << "accepted a checkpoint truncated to " << keep << " bytes";
    std::remove(cut.c_str());
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsDimsOverflow) {
  // A crafted header whose dims would overflow num_elements (or stall the allocator)
  // must fail the bounds check BEFORE any shape or tensor is built.
  WordLmModel model(TinyLm(909));
  const uint64_t count = model.graph()->variables().size();
  std::string path = TempPath("ckpt_overflow.px");
  WriteWords(path, {kMagic, kVersion, /*step=*/0, /*seconds bits=*/0, count,
                    /*index=*/0, /*rank=*/2, /*dims=*/1ull << 62, 1ull << 62});
  auto loaded = LoadCheckpoint(*model.graph(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsAbsurdRank) {
  WordLmModel model(TinyLm(910));
  const uint64_t count = model.graph()->variables().size();
  std::string path = TempPath("ckpt_rank.px");
  // rank = 2^40: without the rank cap, the loader would try to read a trillion dims.
  WriteWords(path, {kMagic, kVersion, 0, 0, count, /*index=*/0, /*rank=*/1ull << 40});
  auto loaded = LoadCheckpoint(*model.graph(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsVariableCountMismatch) {
  // A syntactically valid header whose variable count disagrees with the graph is a
  // checkpoint from a different model — a precondition failure, not a parse error.
  WordLmModel model(TinyLm(911));
  const uint64_t count = model.graph()->variables().size();
  std::string path = TempPath("ckpt_count.px");
  WriteWords(path, {kMagic, kVersion, 0, 0, count + 3});
  auto loaded = LoadCheckpoint(*model.graph(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsUnsupportedVersion) {
  WordLmModel model(TinyLm(912));
  std::string path = TempPath("ckpt_version.px");
  WriteWords(path, {kMagic, /*version=*/99, 0, 0, 0});
  auto loaded = LoadCheckpoint(*model.graph(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsDuplicateVariableRecord) {
  // embedding_dim == hidden_dim gives the two tables one shape, so a file that names
  // the embedding twice passes the count and every shape check. Loading it must fail:
  // otherwise softmax_emb would get no value, and a restore would keep its live value
  // while rewinding the step counter and clock.
  WordLmModel model({.vocab_size = 40, .embedding_dim = 4, .hidden_dim = 4,
                     .batch_per_rank = 8, .seed = 914});
  const std::vector<VariableDef>& variables = model.graph()->variables();
  ASSERT_TRUE(variables[0].shape == variables[1].shape);
  std::vector<uint64_t> words = {kMagic, kVersion, /*step=*/0, /*seconds bits=*/0,
                                 variables.size()};
  for (size_t v = 0; v < variables.size(); ++v) {
    const TensorShape& shape = variables[v].shape;
    words.push_back(v == 1 ? 0 : v);  // the second record repeats index 0
    words.push_back(static_cast<uint64_t>(shape.rank()));
    for (int d = 0; d < shape.rank(); ++d) {
      words.push_back(static_cast<uint64_t>(shape.dim(d)));
    }
    ASSERT_EQ(shape.num_elements() % 2, 0);  // zero floats, two per word
    words.insert(words.end(), static_cast<size_t>(shape.num_elements() / 2), 0);
  }
  std::string path = TempPath("ckpt_duplicate.px");
  WriteWords(path, words);
  auto loaded = LoadCheckpoint(*model.graph(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsCorruptMeta) {
  // A restore installs the header's step and clock: the step must fit int64_t, and the
  // clock must be a finite, non-negative number of seconds, or the first simulated
  // iteration after the restore cannot run.
  WordLmModel model(TinyLm(915));
  VariableStore store = VariableStore::InitFrom(*model.graph());
  std::string path = TempPath("ckpt_meta_corrupt.px");
  ASSERT_TRUE(SaveCheckpoint(*model.graph(), store, path, {.step = 3, .simulated_seconds = 1.5})
                  .ok());
  struct Corruption {
    const char* name;
    uint64_t step;
    double seconds;
  };
  const Corruption cases[] = {
      {"step 2^63 + 7", (1ull << 63) + 7, 1.5},
      {"seconds NaN", 3, std::numeric_limits<double>::quiet_NaN()},
      {"seconds +inf", 3, std::numeric_limits<double>::infinity()},
      {"seconds -1", 3, -1.0},
  };
  for (const Corruption& corruption : cases) {
    SCOPED_TRACE(corruption.name);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 2 * sizeof(uint64_t), SEEK_SET), 0);  // past magic, version
    ASSERT_EQ(std::fwrite(&corruption.step, sizeof(uint64_t), 1, f), 1u);
    ASSERT_EQ(std::fwrite(&corruption.seconds, sizeof(double), 1, f), 1u);
    std::fclose(f);
    auto loaded = LoadCheckpoint(*model.graph(), path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, FailedSaveLeavesPreviousCheckpointIntact) {
  // The atomic-write property the recovery path relies on: when a save cannot
  // complete, the previous checkpoint at the target path survives untouched.
  WordLmModel model(TinyLm(913));
  VariableStore store = VariableStore::InitFrom(*model.graph());
  store.GetMutable(0).mutable_floats()[0] = 7.25f;
  std::string path = TempPath("ckpt_atomic.px");
  ASSERT_TRUE(SaveCheckpoint(*model.graph(), store, path).ok());
  // A save to an unwritable location fails cleanly...
  EXPECT_FALSE(
      SaveCheckpoint(*model.graph(), store, "/nonexistent-dir/nope.px").ok());
  // ...and the original is still loadable with the original bits.
  auto loaded = LoadCheckpoint(*model.graph(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Get(0).floats()[0], 7.25f);
  std::remove(path.c_str());
}

TEST(AsyncPsTest, TrainingConvergesWithoutBarrier) {
  WordLmModel model({.vocab_size = 80, .embedding_dim = 6, .hidden_dim = 10,
                     .batch_per_rank = 16, .seed = 905});
  AsyncPsEngine engine(model.graph(), PsNumericConfig{});
  Executor executor(model.graph());
  Rng rng(95);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 80; ++step) {
    // Two workers pushing in turn, each against possibly-stale values (the defining
    // property of asynchronous training, paper section 2.1).
    for (const FeedMap& feeds : model.TrainShards(2, rng)) {
      StepResult grads = executor.RunStep(engine.CurrentValues(), feeds, model.loss());
      if (step == 0 && first_loss == 0.0f) {
        first_loss = grads.loss;
      }
      last_loss = grads.loss;
      engine.PushGradients(grads, 0.4f);
    }
  }
  EXPECT_EQ(engine.pushes_applied(), 160);
  EXPECT_LT(last_loss, first_loss * 0.8f);
}

TEST(AsyncPsTest, StaleUpdatesDivergeFromSynchronousTrajectory) {
  // Async applies each worker's gradient against different parameter versions, so after
  // one "round" the values differ from the synchronous (aggregated) step — the staleness
  // that motivates synchronous training in the paper.
  WordLmModel model({.vocab_size = 60, .embedding_dim = 6, .hidden_dim = 8,
                     .batch_per_rank = 12, .seed = 906});
  Executor executor(model.graph());
  AsyncPsEngine async_engine(model.graph(), PsNumericConfig{});
  PsNumericConfig sync_config;
  sync_config.dense_aggregation = AggregationMethod::kSum;
  sync_config.sparse_aggregation = AggregationMethod::kSum;
  PsNumericEngine sync_engine(model.graph(), sync_config);

  Rng rng(96);
  std::vector<FeedMap> shards = model.TrainShards(2, rng);
  // Synchronous: both grads from the same version, applied together.
  std::vector<StepResult> sync_grads;
  for (const FeedMap& feeds : shards) {
    sync_grads.push_back(executor.RunStep(sync_engine.CurrentValues(), feeds, model.loss()));
  }
  sync_engine.ApplyStep(sync_grads, 0.2f);
  // Asynchronous: second worker computes against the first worker's update.
  for (const FeedMap& feeds : shards) {
    StepResult grads = executor.RunStep(async_engine.CurrentValues(), feeds, model.loss());
    async_engine.PushGradients(grads, 0.4f);
  }
  float max_diff = 0.0f;
  for (size_t v = 0; v < model.graph()->variables().size(); ++v) {
    max_diff = std::max(max_diff,
                        MaxAbsDiff(async_engine.CurrentValues().Get(static_cast<int>(v)),
                                   sync_engine.CurrentValues().Get(static_cast<int>(v))));
  }
  EXPECT_GT(max_diff, 1e-6f);
}

}  // namespace
}  // namespace parallax
