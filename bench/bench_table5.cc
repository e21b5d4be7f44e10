// Table 5 reproduction: efficiency of Parallax's sampling-based partition search against
// (a) the minimum feasible partition count ("Min") and (b) a brute-force sweep
// ("Optimal"), for LM and NMT on 48 GPUs.
//
// Shape claims (section 6.5): Parallax's choice beats Min by ~2.84x (LM) / ~1.64x (NMT),
// lands within 5% of the brute-force optimum, and needs ~5 sampling runs where the
// brute force needs >50.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/cost_model.h"
#include "src/core/frameworks.h"
#include "src/models/model_zoo.h"

namespace parallax {
namespace {

// The paper's brute force: start from the smallest feasible P, step by 2, stop when
// throughput drops more than 10% below the best seen.
struct BruteForceResult {
  int best_partitions = 0;
  double best_throughput = 0.0;
  int runs = 0;
};

BruteForceResult BruteForce(const ClusterSpec& cluster, const ModelSpec& model, int min_p) {
  BruteForceResult result;
  for (int p = min_p;; p += 2) {
    FrameworkOptions options;
    options.sparse_partitions = p;
    double throughput =
        MeasureFrameworkThroughput(Framework::kParallax, cluster, model, options);
    ++result.runs;
    if (throughput > result.best_throughput) {
      result.best_throughput = throughput;
      result.best_partitions = p;
    } else if (throughput < result.best_throughput * 0.9) {
      break;
    }
    if (p > 4096) {
      break;
    }
  }
  return result;
}

void Run() {
  PrintHeading("Table 5: partitioning method comparison (48 GPUs, words/sec)");
  PrintRow({"Model", "Parallax", "Min", "Optimal", "Px/Min", "Px/Opt", "runs(Px/BF)"});
  PrintRule(7);

  const ClusterSpec cluster = ClusterSpec::Paper();
  for (const ModelSpec& model : {LmSpec(), NmtSpec()}) {
    // Min: smallest partition count without memory exceptions (paper: 4 for LM, 2 for
    // NMT — one piece must fit a server's RAM).
    int min_p = model.name == "LM" ? 4 : 2;

    // One arena across every sampled P: cached collective schedules and task storage
    // persist for the whole search (the runner does the same, core/runner.cc).
    SimulationArena arena;
    auto measure_seconds = [&](int partitions) {
      FrameworkOptions options;
      options.sparse_partitions = partitions;
      IterationSimulator sim =
          MakeFrameworkSimulator(Framework::kParallax, cluster, model, options, &arena);
      return sim.MeasureIterationSeconds();
    };

    PartitionSearchOptions search;
    search.initial_partitions = cluster.num_machines;
    search.min_partitions = min_p;
    PartitionSearchResult found = SearchPartitions(measure_seconds, search);

    FrameworkOptions parallax_options;
    parallax_options.sparse_partitions = found.best_partitions;
    double parallax_tp = MeasureFrameworkThroughput(Framework::kParallax, cluster, model,
                                                    parallax_options);
    FrameworkOptions min_options;
    min_options.sparse_partitions = min_p;
    double min_tp =
        MeasureFrameworkThroughput(Framework::kParallax, cluster, model, min_options);
    BruteForceResult brute = BruteForce(cluster, model, min_p);
    FrameworkOptions opt_options;
    opt_options.sparse_partitions = brute.best_partitions;
    double opt_tp =
        MeasureFrameworkThroughput(Framework::kParallax, cluster, model, opt_options);

    PrintRow({model.name, Thousands(parallax_tp), Thousands(min_tp), Thousands(opt_tp),
              StrFormat("%.2f", parallax_tp / min_tp), StrFormat("%.2f", parallax_tp / opt_tp),
              StrFormat("%zu/%d", found.samples.size(), brute.runs)});
    double paper_px_over_min = model.name == "LM" ? 2.84 : 1.64;
    PrintClaim(model.name + " Parallax/Min", parallax_tp / min_tp, paper_px_over_min);
    PrintClaim(model.name + " Parallax/Optimal (>=0.95 claimed)", parallax_tp / opt_tp,
               0.95);
    std::printf("  search chose P=%d after %zu sampling runs; brute force used %d runs\n",
                found.best_partitions, found.samples.size(), brute.runs);
  }
}

}  // namespace
}  // namespace parallax

int main() {
  parallax::Run();
  return 0;
}
