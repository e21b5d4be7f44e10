#include <gtest/gtest.h>

#include "src/core/frameworks.h"
#include "src/core/iteration_sim.h"
#include "src/models/model_zoo.h"

namespace parallax {
namespace {

// Cost-free configuration: isolates pure byte accounting so the Table 3 closed forms
// hold exactly (no index bytes, no CPU work, no latency contributions to counting).
IterationSimConfig ByteCountingConfig(bool machine_level = false) {
  IterationSimConfig config;
  config.include_index_bytes = false;
  config.ps_local_aggregation = machine_level;
  config.ps_machine_level_pulls = machine_level;
  config.costs = SyncCostParams{};
  return config;
}

VariableSync PsVar(int64_t elements, bool sparse, double alpha, int partitions = 1) {
  VariableSync sync;
  sync.spec.name = "v";
  sync.spec.num_elements = elements;
  sync.spec.row_elements = 1;
  sync.spec.is_sparse = sparse;
  sync.spec.alpha = sparse ? alpha : 1.0;
  sync.method = SyncMethod::kPs;
  sync.partitions = partitions;
  return sync;
}

// Table 3 property check, "m variables" rows: per-machine NIC bytes in the
// 1-worker-per-machine setting of the paper's analysis. Parameterized over
// (N machines, m variables, sparse?, alpha).
struct Table3Case {
  Table3Case(int machines, int num_variables, bool sparse, double alpha)
      : machines(machines), num_variables(num_variables), sparse(sparse), alpha(alpha) {}

  int machines;
  int num_variables;
  bool sparse;
  // gtest prints a parameter without a PrintTo as its raw bytes, and ctest puts that
  // printout into the test name. Spelling the alignment gap out as a zeroed member
  // keeps every byte defined, so the names are the same on every build and run.
  char padding[7] = {};
  double alpha;
};
static_assert(sizeof(Table3Case) == 24, "Table3Case must have no implicit padding");

class Table3PsTest : public ::testing::TestWithParam<Table3Case> {};

TEST_P(Table3PsTest, PerMachineBytesMatchClosedForm) {
  const Table3Case c = GetParam();
  const int64_t w_elements = 1'000'000;  // w = 4MB
  ClusterSpec spec = ClusterSpec::SingleGpuMachines(c.machines);
  std::vector<VariableSync> vars;
  for (int i = 0; i < c.num_variables; ++i) {
    vars.push_back(PsVar(w_elements, c.sparse, c.alpha));
  }
  IterationSimulator sim(spec, vars, 0.01, 2, ByteCountingConfig());
  Cluster cluster(spec);
  sim.SimulateIteration(cluster, 0.0);

  const double w = static_cast<double>(w_elements) * 4;
  const double n = c.machines;
  const double m = c.num_variables;
  const double alpha = c.sparse ? c.alpha : 1.0;
  // Table 3, PS rows: 4*alpha*w*m*(N-1)/N per machine, aggregated over the cluster
  // (individual machines deviate when m % N != 0; totals match exactly).
  double expected_total = n * 4.0 * alpha * w * m * (n - 1) / n;
  double actual_total = 0.0;
  for (int machine = 0; machine < c.machines; ++machine) {
    actual_total += static_cast<double>(cluster.NicBytes(machine));
  }
  EXPECT_NEAR(actual_total, expected_total, expected_total * 0.01 + 1024);
  // With m a multiple of N, every machine matches the formula individually.
  if (c.num_variables % c.machines == 0) {
    for (int machine = 0; machine < c.machines; ++machine) {
      EXPECT_NEAR(static_cast<double>(cluster.NicBytes(machine)),
                  4.0 * alpha * w * m * (n - 1) / n,
                  expected_total * 0.01 / n + 1024)
          << "machine " << machine;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Table3PsTest,
    ::testing::Values(Table3Case{2, 2, false, 1.0}, Table3Case{4, 4, false, 1.0},
                      Table3Case{8, 8, false, 1.0}, Table3Case{8, 16, false, 1.0},
                      Table3Case{4, 6, false, 1.0}, Table3Case{2, 2, true, 0.1},
                      Table3Case{4, 8, true, 0.05}, Table3Case{8, 8, true, 0.02},
                      Table3Case{8, 24, true, 0.5}, Table3Case{5, 10, true, 0.3}));

TEST(Table3Test, SingleDenseVariableOwnerCarries2WNMinus1) {
  // Table 3 "One Variable" row, PS dense: the owning machine transfers 2w(N-1); every
  // other machine transfers only 2w. This asymmetry is the paper's incast argument.
  const int n = 8;
  const int64_t w_elements = 1'000'000;
  ClusterSpec spec = ClusterSpec::SingleGpuMachines(n);
  IterationSimulator sim(spec, {PsVar(w_elements, false, 1.0)}, 0.01, 2,
                         ByteCountingConfig());
  Cluster cluster(spec);
  sim.SimulateIteration(cluster, 0.0);
  const int64_t w = w_elements * 4;
  // Shard placement is round-robin starting at machine 0.
  EXPECT_EQ(cluster.NicBytes(0), 2 * w * (n - 1));
  for (int m = 1; m < n; ++m) {
    EXPECT_EQ(cluster.NicBytes(m), 2 * w);
  }
}

TEST(Table3Test, SingleSparseVariableScalesWithAlpha) {
  const int n = 4;
  const int64_t w_elements = 1'000'000;
  const double alpha = 0.25;
  ClusterSpec spec = ClusterSpec::SingleGpuMachines(n);
  IterationSimulator sim(spec, {PsVar(w_elements, true, alpha)}, 0.01, 2,
                         ByteCountingConfig());
  Cluster cluster(spec);
  sim.SimulateIteration(cluster, 0.0);
  const double w = static_cast<double>(w_elements) * 4;
  EXPECT_NEAR(static_cast<double>(cluster.NicBytes(0)), 2 * alpha * w * (n - 1),
              alpha * w * 0.01);
}

TEST(IterationSimTest, PartitioningParallelizesAggregation) {
  // Table 2's mechanism: at P=num_machines the per-shard accumulator chain serializes on
  // one core; more partitions spread it across cores and servers. Iteration time must
  // drop substantially from P=8 to P=128 and stop improving (or worsen) by P=1024.
  ClusterSpec spec = ClusterSpec::Paper();
  ModelSpec lm = LmSpec();
  FrameworkOptions options;
  auto time_at = [&](int partitions) {
    options.sparse_partitions = partitions;
    IterationSimulator sim = MakeFrameworkSimulator(Framework::kTfPs, spec, lm, options);
    return sim.MeasureIterationSeconds();
  };
  double t8 = time_at(8);
  double t128 = time_at(128);
  double t1024 = time_at(1024);
  EXPECT_GT(t8, t128 * 1.3) << "partitioning should speed up LM substantially";
  EXPECT_GT(t1024, t128 * 0.99) << "past the optimum, overhead dominates";
}

TEST(IterationSimTest, ArBeatsNaivePsOnDenseModel) {
  // Table 1's dense rows: Horovod (AR) > TF-PS for ResNet-50/Inception-v3.
  ClusterSpec spec = ClusterSpec::Paper();
  ModelSpec resnet = ResNet50Spec();
  FrameworkOptions options;
  double ps = MeasureFrameworkThroughput(Framework::kTfPs, spec, resnet, options);
  double ar = MeasureFrameworkThroughput(Framework::kHorovod, spec, resnet, options);
  EXPECT_GT(ar, ps * 1.1);
}

TEST(IterationSimTest, PsBeatsArOnSparseModel) {
  // Table 1's sparse rows: TF-PS > Horovod for LM.
  ClusterSpec spec = ClusterSpec::Paper();
  ModelSpec lm = LmSpec();
  FrameworkOptions options;
  options.sparse_partitions = 128;
  double ps = MeasureFrameworkThroughput(Framework::kTfPs, spec, lm, options);
  double ar = MeasureFrameworkThroughput(Framework::kHorovod, spec, lm, options);
  EXPECT_GT(ps, ar * 1.3);
}

TEST(IterationSimTest, HybridAtLeastMatchesBothPureArchitectures) {
  // Section 6.3: "Parallax always outperforms or gives performance equal to both
  // TF-PS and Horovod" — checked on both model families.
  ClusterSpec spec = ClusterSpec::Paper();
  FrameworkOptions options;
  options.sparse_partitions = 64;
  for (const ModelSpec& model : {ResNet50Spec(), LmSpec(), NmtSpec()}) {
    double ps = MeasureFrameworkThroughput(Framework::kTfPs, spec, model, options);
    double ar = MeasureFrameworkThroughput(Framework::kHorovod, spec, model, options);
    double hybrid =
        MeasureFrameworkThroughput(Framework::kParallax, spec, model, options);
    EXPECT_GE(hybrid, ps * 0.98) << model.name;
    EXPECT_GE(hybrid, ar * 0.98) << model.name;
  }
}

TEST(IterationSimTest, LocalAggregationReducesServerTraffic) {
  // OptPS vs NaivePS on a sparse model: one push per machine instead of one per GPU.
  ClusterSpec spec = ClusterSpec::Paper();
  ModelSpec lm = LmSpec();
  FrameworkOptions options;
  options.sparse_partitions = 128;
  double naive = MeasureFrameworkThroughput(Framework::kTfPs, spec, lm, options);
  double opt = MeasureFrameworkThroughput(Framework::kOptPs, spec, lm, options);
  EXPECT_GT(opt, naive * 1.2);
}

TEST(IterationSimTest, IterationTimesReachSteadyState) {
  ClusterSpec spec = ClusterSpec::Paper();
  ModelSpec resnet = ResNet50Spec();
  FrameworkOptions options;
  IterationSimulator sim = MakeFrameworkSimulator(Framework::kParallax, spec, resnet, options);
  std::vector<double> durations = sim.RunIterations(10);
  // After warmup, consecutive iterations take (nearly) identical time — determinism.
  for (size_t i = 6; i < durations.size(); ++i) {
    EXPECT_NEAR(durations[i], durations[5], durations[5] * 0.02);
  }
}

TEST(IterationSimTest, OneGpuAppliesSparseVariablesAtTheElementsTheyTouch) {
  // A one-GPU job synchronizes nothing: its iteration is the compute plus the local
  // apply. A dense variable's apply walks every element; a sparse one's walks only the
  // elements a step touches, at the sparse rate the AllGatherv path charges.
  const ClusterSpec spec = ClusterSpec::SingleGpuMachines(1);
  VariableSync embedding = PsVar(50'000'000, /*sparse=*/true, 0.01);
  embedding.spec.name = "embedding";
  VariableSync dense = PsVar(3'000'000, /*sparse=*/false, 1.0);
  dense.spec.name = "dense";
  dense.method = SyncMethod::kArAllReduce;
  const double compute_seconds = 0.05;
  const IterationSimConfig config;
  IterationSimulator sim(spec, {embedding, dense}, compute_seconds, 4, config);

  const int64_t touched = static_cast<int64_t>(0.01 * 50'000'000.0);
  const double dense_apply = config.costs.gpu_dense_apply_seconds_per_element * 3e6;
  const double sparse_apply =
      config.costs.gpu_sparse_apply_seconds_per_element * static_cast<double>(touched);
  EXPECT_DOUBLE_EQ(sim.MeasureIterationSeconds(),
                   compute_seconds + dense_apply + sparse_apply);
}

TEST(IterationSimTest, ThroughputScalesWithMachines) {
  // Figure 8 shape: adding machines increases aggregate throughput for every framework
  // on the dense model.
  ModelSpec resnet = ResNet50Spec();
  FrameworkOptions options;
  for (Framework framework : {Framework::kTfPs, Framework::kHorovod, Framework::kParallax}) {
    double previous = 0.0;
    for (int machines : {1, 2, 4, 8}) {
      ClusterSpec spec = ClusterSpec::Paper();
      spec.num_machines = machines;
      double throughput =
          MeasureFrameworkThroughput(framework, spec, resnet, options);
      EXPECT_GT(throughput, previous) << FrameworkName(framework) << " @ " << machines;
      previous = throughput;
    }
  }
}

}  // namespace
}  // namespace parallax
