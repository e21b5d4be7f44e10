#include "src/core/frameworks.h"

#include "src/base/logging.h"
#include "src/core/partition_plan.h"

namespace parallax {

const char* FrameworkName(Framework framework) {
  switch (framework) {
    case Framework::kTfPs:
      return "TF-PS";
    case Framework::kHorovod:
      return "Horovod";
    case Framework::kOptPs:
      return "OptPS";
    case Framework::kParallax:
      return "Parallax";
  }
  return "Unknown";
}

double EstimateArSeconds(const VariableSpec& spec, const ClusterSpec& cluster,
                         const SyncCostParams& costs) {
  // Treat the variable as dense: ring AllReduce across machines moves 2(M-1)/M * w per
  // NIC per direction (doubled for the store-and-forward link model), then every GPU
  // applies the aggregated gradient.
  const double m = cluster.num_machines;
  const double bytes = static_cast<double>(spec.bytes());
  double transfer = m > 1 ? 2.0 * 2.0 * (m - 1) / m * bytes / cluster.nic_bandwidth : 0.0;
  double apply = costs.gpu_dense_apply_seconds_per_element *
                 static_cast<double>(spec.num_elements);
  return transfer + apply;
}

double EstimatePsSeconds(const VariableSpec& spec, const ClusterSpec& cluster,
                         const SyncCostParams& costs, int partitions,
                         double compute_overlap_seconds) {
  // PS path with local aggregation: per-machine union gradients feed per-piece
  // accumulator chains (serial over machines), then the update op flushes each piece.
  // Pieces run in parallel across servers/cores, so one piece's chain is the bar.
  const double m = cluster.num_machines;
  const int64_t rows = spec.num_elements / std::max<int64_t>(spec.row_elements, 1);
  const int p = static_cast<int>(
      std::min<int64_t>(rows, std::max(partitions, 1)));
  const double piece_elements = static_cast<double>(spec.num_elements) / p;
  const double machine_union = UnionAlpha(spec.alpha, cluster.gpus_per_machine);
  double chain = m * (machine_union * piece_elements *
                          costs.sparse_agg_seconds_per_element +
                      costs.request_overhead_seconds);
  chain = std::max(0.0, chain - compute_overlap_seconds);
  double flush = costs.sparse_flush_seconds_per_element * piece_elements +
                 costs.sparse_update_seconds_per_element *
                     UnionAlpha(spec.alpha, cluster.total_gpus()) * piece_elements;
  // Per-server share of pull + push traffic (balanced across machines).
  const double alpha_bytes = spec.alpha * static_cast<double>(spec.bytes());
  double transfer =
      m > 1 ? 2.0 * 4.0 * alpha_bytes * (m - 1) / m / m / cluster.nic_bandwidth : 0.0;
  return chain + flush + transfer;
}

std::vector<VariableSync> AssignVariables(Framework framework, const ModelSpec& model,
                                          const FrameworkOptions& options,
                                          const ClusterSpec& cluster) {
  std::vector<VariableSync> assignment;
  assignment.reserve(model.variables.size());
  for (const VariableSpec& spec : model.variables) {
    VariableSync sync;
    sync.spec = spec;
    switch (framework) {
      case Framework::kTfPs:
      case Framework::kOptPs:
        sync.method = SyncMethod::kPs;
        sync.partitions = spec.is_sparse ? options.sparse_partitions : 1;
        break;
      case Framework::kHorovod:
        sync.method = spec.is_sparse ? SyncMethod::kArAllGatherv : SyncMethod::kArAllReduce;
        break;
      case Framework::kParallax:
        if (!spec.is_sparse) {
          sync.method = SyncMethod::kArAllReduce;
        } else if (spec.alpha >= options.alpha_dense_threshold ||
                   EstimateArSeconds(spec, cluster, options.costs) <
                       EstimatePsSeconds(spec, cluster, options.costs,
                                         options.sparse_partitions,
                                         0.4 * model.gpu_compute_seconds)) {
          // "If the alpha value of a sparse variable is close to 1, then it may be
          // helpful to handle the variable as a dense variable and use AllReduce"
          // (section 3.1): chosen when the balanced ring's estimated cost undercuts the
          // PS path despite moving 1/alpha more bytes.
          sync.method = SyncMethod::kArAllReduce;
        } else {
          sync.method = SyncMethod::kPs;
          sync.partitions = options.sparse_partitions;
        }
        break;
    }
    sync.partitions = RowCappedPartitions(
        sync.partitions, spec.num_elements / std::max<int64_t>(spec.row_elements, 1));
    assignment.push_back(std::move(sync));
  }
  return assignment;
}

IterationSimConfig SimConfigFor(Framework framework, const FrameworkOptions& options) {
  IterationSimConfig config;
  config.costs = options.costs;
  config.gatherv_algorithm = options.gatherv_algorithm;
  switch (framework) {
    case Framework::kTfPs:
    case Framework::kHorovod:
      config.ps_local_aggregation = false;
      config.ps_machine_level_pulls = false;
      break;
    case Framework::kOptPs:
    case Framework::kParallax:
      // OptPS = local aggregation on the push path plus smart placement of reads: each
      // machine pulls a variable once (the chief) and fans it out over PCIe, instead of
      // one pull per GPU worker (section 4.3's read-path optimization).
      config.ps_local_aggregation = true;
      config.ps_machine_level_pulls = true;
      break;
  }
  return config;
}

IterationSimulator MakeFrameworkSimulator(Framework framework, const ClusterSpec& cluster,
                                          const ModelSpec& model,
                                          const FrameworkOptions& options,
                                          SimulationArena* arena) {
  return IterationSimulator(cluster, AssignVariables(framework, model, options, cluster),
                            model.gpu_compute_seconds, model.compute_chunks,
                            SimConfigFor(framework, options), arena);
}

double MeasureFrameworkThroughput(Framework framework, const ClusterSpec& cluster,
                                  const ModelSpec& model, const FrameworkOptions& options) {
  IterationSimulator sim = MakeFrameworkSimulator(framework, cluster, model, options);
  double seconds = sim.MeasureIterationSeconds();
  return model.Throughput(seconds, cluster.total_gpus());
}

}  // namespace parallax
