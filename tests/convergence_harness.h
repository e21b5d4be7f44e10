// Convergence-envelope harness for the gradient compression engines
// (docs/compression.md): run a fixed-seed training trajectory through a named engine
// and compare loss curves between compressed runs and the uncompressed "ps" baseline.
//
// Every trajectory is deterministic — same model seed, same data stream, same engine
// routing — so the envelope is a real regression bound, not a statistical one: a
// compressed run that leaves the envelope is a semantics change in the engine, never
// noise. The envelope is asserted on the mean loss over the trajectory's final window
// (single-step losses are batch-noisy even when fully deterministic).
#ifndef PARALLAX_TESTS_CONVERGENCE_HARNESS_H_
#define PARALLAX_TESTS_CONVERGENCE_HARNESS_H_

#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/sync/int8_ps.h"
#include "src/sync/topk_ps.h"

namespace parallax {

struct TrajectoryOptions {
  int ranks = 4;
  int steps = 40;
  float learning_rate = 0.3f;
  uint64_t data_seed = 8601;
};

// Registers a TopKPsEngine under `name` with `config` unless the name is already
// taken — the global registry outlives gtest repeats, so test registrations must be
// idempotent. (Config mismatches across callers of the same name would silently keep
// the first config; use one name per config.)
inline void EnsureTopKEngine(const std::string& name, TopKPsConfig config) {
  if (!SyncEngineRegistry::Global().Contains(name)) {
    Status status = RegisterTopKPsEngine(name, config);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

inline void EnsureInt8Engine(const std::string& name, Int8PsConfig config) {
  if (!SyncEngineRegistry::Global().Contains(name)) {
    Status status = RegisterInt8PsEngine(name, config);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// One deterministic training trajectory: every variable routed through
// `engine_name`, fixed cluster shape, fixed data stream. Returns the per-step losses.
template <typename Model>
std::vector<float> RunTrajectory(Model& model, const std::string& engine_name,
                                 const TrajectoryOptions& options = {}) {
  auto runner = RunnerBuilder(model.graph(), model.loss())
                    .WithResources("m0:0,1;m1:0,1")
                    .WithLearningRate(options.learning_rate)
                    .WithSearch({})
                    .WithEngine("*", engine_name)
                    .Build();
  EXPECT_TRUE(runner.ok()) << engine_name << ": " << runner.status().ToString();
  if (!runner.ok()) {
    return {};
  }
  Rng rng(options.data_seed);
  std::vector<float> losses;
  losses.reserve(static_cast<size_t>(options.steps));
  for (int step = 0; step < options.steps; ++step) {
    losses.push_back(runner.value()->Step(model.TrainShards(options.ranks, rng)));
  }
  return losses;
}

// Mean loss over the last `window` steps — the envelope's unit of comparison.
inline double FinalWindowMean(const std::vector<float>& losses, size_t window) {
  EXPECT_GE(losses.size(), window);
  EXPECT_GT(window, 0u);
  if (losses.size() < window || window == 0) {
    return 0.0;
  }
  return std::accumulate(losses.end() - static_cast<ptrdiff_t>(window), losses.end(),
                         0.0) /
         static_cast<double>(window);
}

// The envelope: the compressed run must (a) actually learn — final window strictly
// below its own starting loss — and (b) land within `relative_slack` of the
// uncompressed baseline's final-window mean.
inline void ExpectWithinEnvelope(const std::vector<float>& compressed,
                                 const std::vector<float>& baseline, size_t window,
                                 double relative_slack, const std::string& label) {
  ASSERT_FALSE(compressed.empty()) << label;
  ASSERT_FALSE(baseline.empty()) << label;
  const double compressed_mean = FinalWindowMean(compressed, window);
  const double baseline_mean = FinalWindowMean(baseline, window);
  EXPECT_LT(compressed_mean, static_cast<double>(compressed.front()))
      << label << ": compressed run never learned";
  EXPECT_LE(compressed_mean, baseline_mean * (1.0 + relative_slack))
      << label << ": final-window mean " << compressed_mean
      << " left the envelope around baseline " << baseline_mean;
}

}  // namespace parallax

#endif  // PARALLAX_TESTS_CONVERGENCE_HARNESS_H_
