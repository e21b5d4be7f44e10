// Topology-aware shard placement, end to end: a 2-rack x 4-machine cluster with a
// 2:1 oversubscribed spine, and a model whose row caps make the historical
// round-robin shard assignment stack two heavy PS pieces on one server while another
// machine idles. The per-variable partition search's placement pass (the greedy
// bottleneck-utilization seed plus simulated-clock swap refinement, reading the
// topology of the cluster the candidates are simulated on) finds a server assignment
// that balances the NIC incast and beats the best placement-oblivious plan on the
// simulated clock.
//
// This is the cost-model-level scenario the runner's WithPlacementSearch drives; the
// same machinery runs inside GraphRunner when a per-variable search is configured
// with placement enabled.
#include <cstdio>

#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/sim/cluster.h"

using namespace parallax;

namespace {

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

std::vector<PartitionSearchVariable> SearchVariables() {
  // Row caps 3 and 2 over 4 machines: round-robin parks emb piece 0 and the softmax
  // piece on machine 0 while machine 3 hosts nothing.
  return {{.name = "emb", .alpha = 0.3, .num_elements = 4'000'000, .max_partitions = 3},
          {.name = "softmax", .alpha = 0.5, .num_elements = 600'000, .max_partitions = 2}};
}

// Measures a candidate plan on the simulated clock, exactly the way the runner's
// search does: searched variables as PS shards (counts row-capped, placement applied
// when its length matches), a fresh simulator per sample over one shared arena.
double MeasurePlan(const PartitionPlan& plan, SimulationArena* arena) {
  std::vector<VariableSync> variables;
  for (const PartitionSearchVariable& searched : SearchVariables()) {
    VariableSync sync;
    sync.spec = {searched.name, searched.num_elements, 64, true, searched.alpha};
    sync.method = SyncMethod::kPs;
    sync.partitions = RowCappedPartitions(plan.For(searched.name), searched.max_partitions);
    const std::vector<int>* placement = plan.PlacementFor(searched.name);
    if (placement != nullptr && static_cast<int>(placement->size()) == sync.partitions) {
      sync.placement = *placement;
    }
    variables.push_back(std::move(sync));
  }
  IterationSimConfig config;
  config.ps_local_aggregation = true;
  config.ps_machine_level_pulls = true;
  IterationSimulator sim(TwoRackSpec(), std::move(variables), 2e-3, 4, config, arena);
  return sim.MeasureIterationSeconds();
}

}  // namespace

int main() {
  const ClusterSpec spec = TwoRackSpec();
  const Topology topology(spec);
  std::printf("cluster: %d machines x %d GPUs, %d racks of %d\n", spec.num_machines,
              spec.gpus_per_machine, topology.num_racks(), topology.machines_per_rack());
  std::printf("  same-rack path  m0 -> m1: %.2f GB/s\n",
              topology.PathBandwidth(0, 1) / 1e9);
  std::printf("  cross-rack path m0 -> m2: %.2f GB/s (one shared spine link per rack)\n\n",
              topology.PathBandwidth(0, 2) / 1e9);

  PartitionSearchOptions options;
  options.initial_partitions = 4;
  options.max_partitions = 16;

  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) { return MeasurePlan(plan, &arena); };

  // The placement-oblivious baseline: the identical search with the placement pass off.
  PartitionPlanSearchResult oblivious =
      SearchPartitionPlan(measure, SearchVariables(), spec, options);
  std::printf("placement-oblivious optimum: %s at %.3f ms/iter\n",
              oblivious.plan.ToString().c_str(), oblivious.seconds * 1e3);

  PartitionSearchOptions placed_options = options;
  placed_options.placement = true;
  PartitionPlanSearchResult placed =
      SearchPartitionPlan(measure, SearchVariables(), spec, placed_options);

  std::printf("adopted placement: %s at %.3f ms/iter\n", placed.plan.ToString().c_str(),
              placed.seconds * 1e3);
  for (const PartitionSearchVariable& searched : SearchVariables()) {
    const std::vector<int>* placement = placed.plan.PlacementFor(searched.name);
    if (placement == nullptr) {
      continue;
    }
    std::printf("  %-8s shards on servers [", searched.name.c_str());
    for (size_t p = 0; p < placement->size(); ++p) {
      std::printf("%s%d", p == 0 ? "" : ", ", (*placement)[p]);
    }
    std::printf("]\n");
  }

  const bool has_placement = !placed.plan.placements().empty();
  const bool beats_oblivious = placed.seconds < oblivious.seconds;
  std::printf("\nplacement-aware plan beats best oblivious plan: %s (%.1f%% faster)\n",
              has_placement && beats_oblivious ? "yes" : "no",
              (1.0 - placed.seconds / oblivious.seconds) * 100.0);
  return has_placement && beats_oblivious ? 0 : 1;
}
