// Variable checkpointing — the "file path to save trained variables" of the paper's
// ParallaxConfig (section 4.1), grown into the crash-recovery substrate behind
// GraphRunner::Checkpoint/RestoreFrom (docs/elasticity.md).
//
// A checkpoint is a self-describing binary file: magic, format version, training
// metadata (step counter and simulated clock — what bounds replay after a rank death),
// variable count, then per variable: index, rank, dims, float data. Writes go through
// a temp file + rename, so a crash mid-save never leaves a torn file at the target
// path; loads validate every header field before allocating, so a truncated or
// corrupted file is always a clean Status, never UB.
#ifndef PARALLAX_SRC_GRAPH_CHECKPOINT_H_
#define PARALLAX_SRC_GRAPH_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/graph/executor.h"

namespace parallax {

// Training-progress metadata stored alongside the variable values: where the run was
// when the checkpoint was cut. RestoreFrom resumes the step counter and the simulated
// clock from here, which is what makes replay-after-recovery bounded and honestly
// charged (the replayed steps advance the clock again).
struct CheckpointMeta {
  int64_t step = 0;
  double simulated_seconds = 0.0;
};

// Writes every variable of `store` (indices [0, graph.variables().size())) plus `meta`
// to `path`, atomically (temp file + rename).
Status SaveCheckpoint(const Graph& graph, const VariableStore& store,
                      const std::string& path, const CheckpointMeta& meta = {});

// Reads a checkpoint written by SaveCheckpoint. Shapes must match the graph's
// variables; `meta` (when non-null) receives the stored training metadata. Every
// corruption mode — wrong magic/version, truncated header or data section, a step past
// int64_t, a clock that is NaN, infinite or negative, dims overflow, variable-count
// mismatch (e.g. a checkpoint from a different model) — comes back as a clean error
// Status.
StatusOr<VariableStore> LoadCheckpoint(const Graph& graph, const std::string& path,
                                       CheckpointMeta* meta = nullptr);

// Exact size in bytes of a checkpoint of this graph — what the runner charges to the
// simulated clock per save/load at the configured disk bandwidth.
int64_t CheckpointFileBytes(const Graph& graph);

}  // namespace parallax

#endif  // PARALLAX_SRC_GRAPH_CHECKPOINT_H_
