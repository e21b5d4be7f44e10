// Ablation: isolates the two OptPS ingredients DESIGN.md calls out — local (per-machine)
// gradient aggregation and machine-level pulls (smart read placement) — by toggling each
// independently on the sparse models at 48 GPUs. Complements Table 4, which only shows
// the combined OptPS.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/frameworks.h"
#include "src/models/model_zoo.h"

namespace parallax {
namespace {

double Measure(const ModelSpec& model, bool local_agg, bool machine_pulls) {
  ClusterSpec cluster = ClusterSpec::Paper();
  FrameworkOptions options;
  options.sparse_partitions = model.name == "NMT" ? 64 : 128;
  std::vector<VariableSync> assignment =
      AssignVariables(Framework::kTfPs, model, options, cluster);
  IterationSimConfig config;
  config.costs = options.costs;
  config.ps_local_aggregation = local_agg;
  config.ps_machine_level_pulls = machine_pulls;
  IterationSimulator sim(cluster, assignment, model.gpu_compute_seconds,
                         model.compute_chunks, config);
  return model.Throughput(sim.MeasureIterationSeconds(), cluster.total_gpus());
}

void Run() {
  PrintHeading("Ablation: local aggregation and machine-level pulls (PS-only, 48 GPUs)");
  PrintRow({"Model", "neither", "+local agg", "+mach pulls", "both(OptPS)"});
  PrintRule(5);
  for (const ModelSpec& model : {LmSpec(), NmtSpec()}) {
    double neither = Measure(model, false, false);
    double agg_only = Measure(model, true, false);
    double pulls_only = Measure(model, false, true);
    double both = Measure(model, true, true);
    PrintRow({model.name, Thousands(neither), Thousands(agg_only), Thousands(pulls_only),
              Thousands(both)});
    PrintClaim(model.name + " local aggregation alone", agg_only / neither, 1.0);
    PrintClaim(model.name + " machine-level pulls alone", pulls_only / neither, 1.0);
    PrintClaim(model.name + " combined (OptPS/NaivePS)", both / neither,
               model.name == "LM" ? 2.53 : 1.14);
  }
  std::printf(
      "\nReading: local aggregation shortens the per-shard accumulator chain (48 -> 8\n"
      "contributors); machine-level pulls cut the owner NIC's pull fan-out 6x. Their\n"
      "combination is the paper's OptPS (section 6.4).\n");
}

}  // namespace
}  // namespace parallax

int main() {
  parallax::Run();
  return 0;
}
