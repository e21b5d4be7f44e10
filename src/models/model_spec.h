// Cost-faithful workload descriptions of the paper's four evaluation models.
//
// Throughput experiments (Tables 1, 2, 4, 5, 6; Figures 8, 9) depend on each model only
// through (a) its variables' element counts, (b) which variables are sparse and what
// fraction of their elements a worker touches per iteration (alpha, paper section 2.2),
// and (c) per-iteration GPU compute time. ModelSpec captures exactly that, with element
// counts matching the paper's Table 1. The *trainable* small models used for convergence
// live in lm_model.h / nmt_model.h / classifier_model.h and are built on the graph IR.
#ifndef PARALLAX_SRC_MODELS_MODEL_SPEC_H_
#define PARALLAX_SRC_MODELS_MODEL_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace parallax {

struct VariableSpec {
  std::string name;
  int64_t num_elements = 0;
  // Elements per row for gather-style access (embedding width). Determines the index
  // overhead of sparse transfers: one int64 index per row.
  int64_t row_elements = 1;
  bool is_sparse = false;
  // Average fraction of elements one worker touches per iteration (1.0 for dense).
  double alpha = 1.0;

  int64_t bytes() const { return num_elements * 4; }
  // Bytes one worker moves for this variable's gradient (values + row indices).
  int64_t worker_grad_bytes() const;
  // Elements one worker touches per iteration.
  int64_t worker_elements() const;

  bool operator==(const VariableSpec& other) const = default;
};

struct ModelSpec {
  std::string name;
  std::vector<VariableSpec> variables;
  // Forward+backward time per iteration on one GPU at the paper's batch size.
  double gpu_compute_seconds = 0.1;
  // Number of compute chunks the fwd+bwd pass is split into; gradients of chunk c become
  // available when the chunk finishes, which is what lets communication overlap compute.
  int compute_chunks = 12;
  // Work items (images or words) one GPU processes per iteration — converts iteration
  // time to the throughput unit the paper reports.
  double items_per_iteration_per_gpu = 64;
  std::string item_unit = "items/sec";

  int64_t TotalElements() const;
  int64_t DenseElements() const;
  int64_t SparseElements() const;
  // Element-weighted average alpha over all variables — the paper's alpha_model.
  double AlphaModel() const;

  // Throughput (items/sec) for the whole cluster given seconds per iteration.
  double Throughput(double seconds_per_iteration, int total_gpus) const {
    return items_per_iteration_per_gpu * total_gpus / seconds_per_iteration;
  }
};

// Fraction of a variable's rows touched by at least one of `n` workers, assuming
// independent access patterns: 1 - (1 - alpha)^n. Used to size the aggregated gradient a
// server applies after accumulating all workers' pushes.
double UnionAlpha(double alpha, int n);

}  // namespace parallax

#endif  // PARALLAX_SRC_MODELS_MODEL_SPEC_H_
