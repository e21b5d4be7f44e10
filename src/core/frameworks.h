// Framework presets: each baseline and Parallax itself expressed as a per-variable
// synchronization assignment over the unified iteration simulator.
//
//  - kTfPs     — TensorFlow with the PS architecture (the paper's TF-PS baseline):
//                every variable on parameter servers, per-worker pulls/pushes, no local
//                aggregation ("NaivePS" in Table 4).
//  - kHorovod  — the AR architecture: AllReduce (NCCL-style hierarchical ring) for dense
//                variables, AllGatherv (OpenMPI-style broadcast) for sparse ones.
//  - kOptPs    — Parallax's optimized PS: local aggregation + machine-level pulls and
//                smart placement, still PS for everything (Table 4's "OptPS").
//  - kParallax — the hybrid: AR for dense variables, OptPS for sparse ones, with the
//                alpha-threshold escape hatch (sparse variables with alpha close to 1 are
//                treated as dense and AllReduced; paper end of section 3.1).
#ifndef PARALLAX_SRC_CORE_FRAMEWORKS_H_
#define PARALLAX_SRC_CORE_FRAMEWORKS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/iteration_sim.h"
#include "src/models/model_spec.h"

namespace parallax {

enum class Framework {
  kTfPs,
  kHorovod,
  kOptPs,
  kParallax,
};

const char* FrameworkName(Framework framework);

struct FrameworkOptions {
  // Fixed partition count for every sparse variable synchronized through PS (row-
  // capped). The paper gives its baselines a fixed count too (section 6.2); nothing
  // fills it in, so a caller wanting Parallax's searched count passes the
  // best_partitions of a SearchPartitions result (core/cost_model.h).
  int sparse_partitions = 1;
  // Sparse variables with alpha >= this are treated as dense under kParallax.
  double alpha_dense_threshold = 0.8;
  // Overrides the AllGatherv algorithm for AR-synchronized sparse variables.
  GathervAlgorithm gatherv_algorithm = GathervAlgorithm::kBroadcast;
  SyncCostParams costs;
};

// Coarse per-iteration cost estimates used by the hybrid assigner (paper section 3.1:
// AR is chosen for a sparse variable when its balanced-ring efficiency outweighs the
// 1/alpha-times-larger transfer). Both estimates use the same calibration constants as
// the full simulator, so the decision is consistent with what the simulator would show.
double EstimateArSeconds(const VariableSpec& spec, const ClusterSpec& cluster,
                         const SyncCostParams& costs);
// compute_overlap_seconds credits the server-CPU accumulator chain for the backward-pass
// window it hides under (chains start as soon as the first gradients arrive and run on
// CPUs while GPUs keep computing); callers pass a fraction of the model's per-iteration
// compute time.
double EstimatePsSeconds(const VariableSpec& spec, const ClusterSpec& cluster,
                         const SyncCostParams& costs, int partitions,
                         double compute_overlap_seconds = 0.0);

// Per-variable assignment under the given framework. The cluster matters for kParallax:
// the cost-based hybrid decision depends on machine count and bandwidth.
std::vector<VariableSync> AssignVariables(Framework framework, const ModelSpec& model,
                                          const FrameworkOptions& options,
                                          const ClusterSpec& cluster = ClusterSpec::Paper());

// Simulator configuration (local aggregation etc.) under the given framework.
IterationSimConfig SimConfigFor(Framework framework, const FrameworkOptions& options);

// Convenience: a ready-to-run simulator for (framework, cluster, model). Pass a shared
// SimulationArena to reuse task storage and cached schedules across many simulators
// (e.g. every sampled P of a partition search); null gives the simulator a private one.
IterationSimulator MakeFrameworkSimulator(Framework framework, const ClusterSpec& cluster,
                                          const ModelSpec& model,
                                          const FrameworkOptions& options,
                                          SimulationArena* arena = nullptr);

// Steady-state throughput in the model's item unit (images/sec or words/sec).
double MeasureFrameworkThroughput(Framework framework, const ClusterSpec& cluster,
                                  const ModelSpec& model, const FrameworkOptions& options);

}  // namespace parallax

#endif  // PARALLAX_SRC_CORE_FRAMEWORKS_H_
