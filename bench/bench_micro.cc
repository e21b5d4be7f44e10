// Micro-benchmarks (google-benchmark) for the kernels whose costs the calibration
// constants model: sparse gradient coalescing and multi-slice sums (naive map reference
// vs the fused MultiVariableSum pass, cold vs workspace-reuse), scatter updates,
// partition stitch, the dense matmuls of the executor (seed loops vs register strips)
// and its tanh, the cost-model fit, ring-schedule construction, and task-graph execution
// throughput. Every bench that runs the register-strip matmuls is labelled with the
// instantiation this CPU dispatches them to ("avx2" or "vec4").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/comm/collectives.h"
#include "src/core/api.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/core/parallel_measure.h"
#include "src/sim/arena_pool.h"
#include "src/graph/executor.h"
#include "src/models/trainable.h"
#include "src/ps/ps_numeric.h"
#include "src/sync/compression.h"
#include "src/tensor/sparse_workspace.h"
#include "src/tensor/tensor_ops.h"
#include "tests/naive_reference.h"

namespace parallax {
namespace {

IndexedSlices MakeSlices(int64_t rows, int64_t width, int64_t nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> indices;
  indices.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) {
    indices.push_back(static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(rows))));
  }
  return IndexedSlices(std::move(indices), RandomNormal(TensorShape({nnz, width}), rng),
                       TensorShape({rows, width}));
}

void BM_SparseCoalesceNaive(benchmark::State& state) {
  IndexedSlices slices = MakeSlices(100'000, 64, state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveCoalesce(slices));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_SparseCoalesceNaive)->Arg(1'000)->Arg(10'000)->Arg(50'000);

// The fused pass over one group of one input: a coalesce.
void BM_SparseCoalesce(benchmark::State& state) {
  IndexedSlices slices = MakeSlices(100'000, 64, state.range(0), 1);
  const std::vector<SparseSumGroup> groups = {{{&slices}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiVariableSum(groups));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_SparseCoalesce)->Arg(1'000)->Arg(10'000)->Arg(50'000);

void BM_SparseCoalesceReuse(benchmark::State& state) {
  IndexedSlices slices = MakeSlices(100'000, 64, state.range(0), 1);
  const std::vector<SparseSumGroup> groups = {{{&slices}}};
  SparseWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiVariableSum(groups, &ws));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_SparseCoalesceReuse)->Arg(1'000)->Arg(10'000)->Arg(50'000);

// Baseline Sum semantics of the seed: materialize Concat, then coalesce it.
void BM_SparseSumNaive(benchmark::State& state) {
  std::vector<IndexedSlices> slices;
  for (int k = 0; k < 8; ++k) {
    slices.push_back(
        MakeSlices(100'000, 64, state.range(0), static_cast<uint64_t>(10 + k)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveCoalesce(IndexedSlices::Concat(slices)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8 * 64);
}
BENCHMARK(BM_SparseSumNaive)->Arg(1'000)->Arg(10'000)->Arg(50'000);

// The fused pass over one group of the same 8 inputs.
void BM_SparseSumFused(benchmark::State& state) {
  std::vector<IndexedSlices> slices;
  for (int k = 0; k < 8; ++k) {
    slices.push_back(
        MakeSlices(100'000, 64, state.range(0), static_cast<uint64_t>(10 + k)));
  }
  std::vector<SparseSumGroup> groups(1);
  for (const IndexedSlices& s : slices) {
    groups.front().inputs.push_back(&s);
  }
  SparseWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiVariableSum(groups, &ws));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8 * 64);
}
BENCHMARK(BM_SparseSumFused)->Arg(1'000)->Arg(10'000)->Arg(50'000);

void BM_ScatterSgdUpdate(benchmark::State& state) {
  Rng rng(2);
  Tensor params = RandomNormal(TensorShape({100'000, 64}), rng);
  IndexedSlices grad = MakeSlices(100'000, 64, state.range(0), 3);
  for (auto _ : state) {
    ScatterSgdUpdate(params, grad, 0.01f);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_ScatterSgdUpdate)->Arg(1'000)->Arg(10'000);

// The instantiation the public matmul kernels run on this CPU, as a bench label.
const char* MatMulIsaLabel() { return internal::MatMulIsaName(internal::ActiveMatMulIsa()); }

void BM_MatMul(benchmark::State& state) {
  Rng rng(6);
  int64_t n = state.range(0);
  Tensor a = RandomNormal(TensorShape({n, n}), rng);
  Tensor b = RandomNormal(TensorShape({n, n}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(MatMulIsaLabel());
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// The sampled-logits node at the executor's real shapes, args {batch, hidden}: skew
// (EmbeddingSkewModel, batch 64) is {64, 128}, lm (WordLmModel in pxbench) is {32, 48}.
// Forward: logits[batch, batch] = x[batch, hidden] . selected[batch, hidden]^T.
// Backward: dselected[batch, hidden] = g[batch, batch]^T . x[batch, hidden].
// The Naive variants run the seed loops (tests/naive_reference.h) on the same operands.
template <bool kNaive>
void MatMulTransposeBBench(benchmark::State& state) {
  Rng rng(7);
  int64_t batch = state.range(0);
  int64_t hidden = state.range(1);
  Tensor x = RandomNormal(TensorShape({batch, hidden}), rng);
  Tensor selected = RandomNormal(TensorShape({batch, hidden}), rng);
  Tensor logits;
  for (auto _ : state) {
    if (kNaive) {
      logits = NaiveMatMulTransposeB(x, selected);
    } else {
      MatMulTransposeBInto(logits, x, selected);
    }
    benchmark::DoNotOptimize(logits.floats().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * batch * hidden);
  if (!kNaive) {
    state.SetLabel(MatMulIsaLabel());
  }
}

template <bool kNaive>
void MatMulTransposeABench(benchmark::State& state) {
  Rng rng(8);
  int64_t batch = state.range(0);
  int64_t hidden = state.range(1);
  Tensor g = RandomNormal(TensorShape({batch, batch}), rng);
  Tensor x = RandomNormal(TensorShape({batch, hidden}), rng);
  Tensor dselected;
  for (auto _ : state) {
    if (kNaive) {
      dselected = NaiveMatMulTransposeA(g, x);
    } else {
      MatMulTransposeAInto(dselected, g, x);
    }
    benchmark::DoNotOptimize(dselected.floats().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * batch * hidden);
  if (!kNaive) {
    state.SetLabel(MatMulIsaLabel());
  }
}

void BM_MatMulTransposeB(benchmark::State& state) { MatMulTransposeBBench<false>(state); }
BENCHMARK(BM_MatMulTransposeB)->Args({64, 128})->Args({32, 48});
void BM_MatMulTransposeBNaive(benchmark::State& state) { MatMulTransposeBBench<true>(state); }
BENCHMARK(BM_MatMulTransposeBNaive)->Args({64, 128})->Args({32, 48});
void BM_MatMulTransposeA(benchmark::State& state) { MatMulTransposeABench<false>(state); }
BENCHMARK(BM_MatMulTransposeA)->Args({64, 128})->Args({32, 48});
void BM_MatMulTransposeANaive(benchmark::State& state) { MatMulTransposeABench<true>(state); }
BENCHMARK(BM_MatMulTransposeANaive)->Args({64, 128})->Args({32, 48});

// The tensor a model's "hidden" Tanh node reads, from a forward pass on the initial
// values and one training shard: the values TanhInto sees in a replica's step.
template <typename Model>
Tensor HiddenPreActivation(Model& model, uint64_t seed) {
  const Graph& graph = *model.graph();
  NodeId input = kNoNode;
  for (const Node& node : graph.nodes()) {
    if (node.type == OpType::kTanh && node.name == "hidden") {
      input = node.inputs[0];
    }
  }
  PX_CHECK(input != kNoNode) << "no hidden Tanh node";
  Rng rng(seed);
  return Executor(&graph).RunForward(VariableStore::InitFrom(graph),
                                     model.TrainShards(1, rng)[0], input);
}

// The hidden layer's tanh at the executor's real shapes and values: skew
// (EmbeddingSkewModel, batch 64) is [64, 128], lm (WordLmModel in pxbench) is [32, 48].
// With the matmuls on the wide strips, this is the largest op left in a skew replica;
// max_abs_x echoes how small the pre-activations are.
void BM_TanhInto(benchmark::State& state, bool skew) {
  Tensor x;
  if (skew) {
    EmbeddingSkewModel::Options options;
    options.batch_per_rank = 64;
    EmbeddingSkewModel model(options);
    x = HiddenPreActivation(model, 14);
  } else {
    WordLmModel model({.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
                       .batch_per_rank = 32, .seed = 13});
    x = HiddenPreActivation(model, 14);
  }
  Tensor out;
  for (auto _ : state) {
    TanhInto(out, x);
    benchmark::DoNotOptimize(out.floats().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.num_elements());
  float max_abs = 0.0f;
  for (float v : x.floats()) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  state.counters["max_abs_x"] = max_abs;
}
BENCHMARK_CAPTURE(BM_TanhInto, skew, true);
BENCHMARK_CAPTURE(BM_TanhInto, lm, false);

void BM_RingAllReduceSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> machines;
  for (int m = 0; m < n; ++m) {
    machines.push_back(m);
  }
  std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
  ClusterSpec spec = ClusterSpec::SingleGpuMachines(n);
  for (auto _ : state) {
    Cluster cluster(spec);
    TaskGraph graph;
    AddRingAllReduce(graph, machines, 100'000'000, deps, CollectiveOptions{});
    benchmark::DoNotOptimize(graph.Execute(cluster));
  }
}
BENCHMARK(BM_RingAllReduceSchedule)->Arg(8)->Arg(32);

// Steady-state path: the ring plan is cached and replayed into a reused graph arena.
void BM_RingAllReduceScheduleCached(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> machines;
  for (int m = 0; m < n; ++m) {
    machines.push_back(m);
  }
  std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
  ClusterSpec spec = ClusterSpec::SingleGpuMachines(n);
  CollectiveScheduleCache cache;
  TaskGraph graph;
  for (auto _ : state) {
    Cluster cluster(spec);
    graph.Reset();
    AddRingAllReduce(graph, machines, 100'000'000, deps, CollectiveOptions{}, &cache);
    benchmark::DoNotOptimize(graph.Execute(cluster));
  }
}
BENCHMARK(BM_RingAllReduceScheduleCached)->Arg(8)->Arg(32);

// A PS-shaped DAG: fan-out transfers + serial accumulator chains.
void BuildPsShapedDag(TaskGraph& graph, int shards) {
  const int ranks = 48;
  for (int s = 0; s < shards; ++s) {
    TaskId acc = kNoTask;
    for (int r = 0; r < ranks; ++r) {
      int machine = r / 6;
      int server = s % 8;
      TaskId push = machine == server ? graph.AddLocalTransfer(machine, 100'000)
                                      : graph.AddTransfer(machine, server, 100'000);
      TaskId deps[2] = {push, acc};
      acc = graph.AddCpuWork(server, 1e-5,
                             std::span<const TaskId>(deps, acc == kNoTask ? 1u : 2u));
    }
  }
}

void BM_TaskGraphExecution(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ClusterSpec spec = ClusterSpec::Paper();
  for (auto _ : state) {
    Cluster cluster(spec);
    TaskGraph graph;
    BuildPsShapedDag(graph, shards);
    benchmark::DoNotOptimize(graph.Execute(cluster));
    state.counters["tasks"] = static_cast<double>(graph.num_tasks());
  }
}
BENCHMARK(BM_TaskGraphExecution)->Arg(64)->Arg(256);

// Same workload, but the graph arena is reused (Reset + rebuild + Execute): the
// steady-state pattern of the partition search's inner loop.
void BM_TaskGraphExecutionReuse(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ClusterSpec spec = ClusterSpec::Paper();
  TaskGraph graph;
  for (auto _ : state) {
    Cluster cluster(spec);
    graph.Reset();
    BuildPsShapedDag(graph, shards);
    benchmark::DoNotOptimize(graph.Execute(cluster));
    state.counters["tasks"] = static_cast<double>(graph.num_tasks());
  }
}
BENCHMARK(BM_TaskGraphExecutionReuse)->Arg(64)->Arg(256);

// Pure event-loop throughput: the DAG is built once and only Execute repeats.
void BM_TaskGraphExecuteOnly(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ClusterSpec spec = ClusterSpec::Paper();
  TaskGraph graph;
  BuildPsShapedDag(graph, shards);
  for (auto _ : state) {
    Cluster cluster(spec);
    benchmark::DoNotOptimize(graph.Execute(cluster));
  }
  state.counters["tasks"] = static_cast<double>(graph.num_tasks());
}
BENCHMARK(BM_TaskGraphExecuteOnly)->Arg(64)->Arg(256);

// Representative hybrid step: one partitioned sparse embedding on PS, dense AR
// variables, one sparse AllGatherv variable — the shape the partition search simulates.
std::vector<VariableSync> HybridVariables(int partitions) {
  std::vector<VariableSync> vars;
  VariableSync embedding;
  embedding.spec = {"embedding", 8'000'000, 512, true, 0.02};
  embedding.method = SyncMethod::kPs;
  embedding.partitions = partitions;
  vars.push_back(embedding);
  for (int i = 0; i < 4; ++i) {
    VariableSync dense;
    dense.spec = {"dense" + std::to_string(i), 2'000'000, 1, false, 1.0};
    dense.method = SyncMethod::kArAllReduce;
    vars.push_back(dense);
  }
  VariableSync softmax;
  softmax.spec = {"softmax", 4'000'000, 512, true, 0.05};
  softmax.method = SyncMethod::kArAllGatherv;
  vars.push_back(softmax);
  return vars;
}

IterationSimConfig HybridSimConfig() {
  IterationSimConfig config;
  config.ps_local_aggregation = true;
  config.ps_machine_level_pulls = true;
  config.gatherv_algorithm = GathervAlgorithm::kRing;
  return config;
}

// Steady-state cost of one simulated training iteration (cluster state carries over, so
// every iteration rebuilds and executes the full DAG — the partition search's inner loop).
void BM_SimulatorIteration(benchmark::State& state) {
  IterationSimulator sim(ClusterSpec::Paper(),
                         HybridVariables(static_cast<int>(state.range(0))), 4e-3, 4,
                         HybridSimConfig());
  Cluster cluster(ClusterSpec::Paper());
  SimTime t = 0.0;
  for (auto _ : state) {
    t = sim.SimulateIteration(cluster, t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorIteration)->Arg(8)->Arg(64);

// Cold counterpart: a fresh simulator (fresh arena, empty schedule cache) per
// iteration — the cost every sampled P paid before arenas were shareable.
void BM_SimulatorIterationCold(benchmark::State& state) {
  Cluster cluster(ClusterSpec::Paper());
  SimTime t = 0.0;
  for (auto _ : state) {
    IterationSimulator sim(ClusterSpec::Paper(),
                           HybridVariables(static_cast<int>(state.range(0))), 4e-3, 4,
                           HybridSimConfig());
    t = sim.SimulateIteration(cluster, t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorIterationCold)->Arg(8)->Arg(64);

// The full sampling search (paper section 3.2): each sampled P simulates a short
// training run. This is the end-to-end cost the allocation-free hot path targets.
void BM_PartitionSearch(benchmark::State& state) {
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 1024;
  for (auto _ : state) {
    auto measure = [&](int partitions) {
      IterationSimulator sim(ClusterSpec::Paper(), HybridVariables(partitions), 4e-3, 4,
                             HybridSimConfig());
      return sim.MeasureIterationSeconds();
    };
    benchmark::DoNotOptimize(SearchPartitions(measure, options));
  }
}
BENCHMARK(BM_PartitionSearch);

// The runner's configuration: one SimulationArena shared by every sampled P, so task
// storage and cached collective schedules persist across the whole search.
void BM_PartitionSearchSharedArena(benchmark::State& state) {
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 1024;
  SimulationArena arena;
  for (auto _ : state) {
    auto measure = [&](int partitions) {
      IterationSimulator sim(ClusterSpec::Paper(), HybridVariables(partitions), 4e-3, 4,
                             HybridSimConfig(), &arena);
      return sim.MeasureIterationSeconds();
    };
    benchmark::DoNotOptimize(SearchPartitions(measure, options));
  }
}
BENCHMARK(BM_PartitionSearchSharedArena);

// The hybrid step plus a small hot "wide" PS variable — the two-coordinate landscape
// the per-variable and parallel search benches all measure over.
std::vector<VariableSync> PerVariableSearchVariables(const PartitionPlan& plan) {
  std::vector<VariableSync> vars = HybridVariables(plan.For("embedding"));
  VariableSync wide;
  wide.spec = {"wide", 500'000, 256, true, 0.6};
  wide.method = SyncMethod::kPs;
  wide.partitions = plan.For("wide");
  vars.push_back(wide);
  return vars;
}

std::vector<PartitionSearchVariable> PerVariableSearchTargets() {
  return {{.name = "embedding", .alpha = 0.02, .num_elements = 8'000'000},
          {.name = "wide", .alpha = 0.6, .num_elements = 500'000}};
}

// The per-variable generalization (SearchPartitionPlan): two PS variables with skewed
// alphas, searched by uniform sweep + closed-form seed + coordinate descent, all on
// the shared arena. Compare against BM_PartitionSearchSharedArena for the cost of
// per-variable resolution over the same machinery (docs/perf.md).
void BM_PerVariableSearch(benchmark::State& state) {
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 1024;
  std::vector<PartitionSearchVariable> targets = PerVariableSearchTargets();
  SimulationArena arena;
  for (auto _ : state) {
    auto measure = [&](const PartitionPlan& plan) {
      IterationSimulator sim(ClusterSpec::Paper(), PerVariableSearchVariables(plan),
                             4e-3, 4, HybridSimConfig(), &arena);
      return sim.MeasureIterationSeconds();
    };
    benchmark::DoNotOptimize(SearchPartitionPlan(measure, targets, options));
  }
}
BENCHMARK(BM_PerVariableSearch);

// Warm re-search from a previous plan, the adaptive loop's path when drift is confined
// to one variable: phases 1-2 are skipped and round 0 sweeps only the drifted variable.
// Compare against BM_PerVariableSearch (the identical cold search) for the warm-start
// win (docs/perf.md).
void BM_PerVariableSearchWarmStart(benchmark::State& state) {
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 1024;
  std::vector<PartitionSearchVariable> targets = PerVariableSearchTargets();
  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    IterationSimulator sim(ClusterSpec::Paper(), PerVariableSearchVariables(plan),
                           4e-3, 4, HybridSimConfig(), &arena);
    return sim.MeasureIterationSeconds();
  };
  PartitionPlanSearchResult cold = SearchPartitionPlan(measure, targets, options);
  for (PartitionSearchVariable& target : targets) {
    target.previous_partitions = cold.plan.For(target.name);
    target.drifted = target.name == "embedding";  // only the embedding's alpha moved
  }
  targets[0].alpha = 0.05;
  PartitionSearchOptions warm_options = options;
  warm_options.warm_start = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SearchPartitionPlan(measure, targets, warm_options));
  }
}
BENCHMARK(BM_PerVariableSearchWarmStart);

// ---- Parallel partition search -------------------------------------------------------
//
// The batched-candidate searches at 1/2/4/8 workers (Arg = pool lanes; 1 leaves the
// batch provider null, i.e. the serial search — the in-family baseline). The adopted
// plan and full trail are bit-identical across args (tests/parallel_search_test.cc);
// only wall-clock and the speculation counters move. docs/perf.md's "Parallel
// partition search" table reads from these four benches.

PlanBatchMeasure MakeBenchBatchMeasure(ThreadPool* pool, ArenaPool* arenas) {
  ParallelMeasureSpec spec;
  spec.cluster = ClusterSpec::Paper();
  spec.apply_plan = [](const PartitionPlan& plan) {
    return PerVariableSearchVariables(plan);
  };
  spec.gpu_compute_seconds = 4e-3;
  spec.compute_chunks = 4;
  spec.sim_config = HybridSimConfig();
  return MakeParallelPlanMeasure(std::move(spec), SearchConcurrency{pool, 0}, arenas);
}

PartitionSearchOptions ParallelSearchBenchOptions() {
  PartitionSearchOptions options;
  options.initial_partitions = 8;
  options.max_partitions = 1024;
  return options;
}

void ReportSpeculation(benchmark::State& state, const BatchMeasureStats& batch) {
  state.counters["batched_evals"] = static_cast<double>(batch.batched_evaluations);
  state.counters["spec_waste"] = static_cast<double>(batch.speculative_waste);
}

void BM_ParallelSearchUniform(benchmark::State& state) {
  PartitionSearchOptions options = ParallelSearchBenchOptions();
  ThreadPool pool(static_cast<int>(state.range(0)));
  options.concurrency = {&pool, 0};
  ArenaPool arenas;
  const UniformBatchMeasure batch =
      MakeUniformBatchMeasure(MakeBenchBatchMeasure(&pool, &arenas));
  SimulationArena arena;
  PartitionSearchResult result;
  for (auto _ : state) {
    auto measure = [&](int partitions) {
      IterationSimulator sim(ClusterSpec::Paper(),
                             PerVariableSearchVariables(PartitionPlan::Uniform(partitions)),
                             4e-3, 4, HybridSimConfig(), &arena);
      return sim.MeasureIterationSeconds();
    };
    result = SearchPartitions(measure, batch, options);
    benchmark::DoNotOptimize(result);
  }
  ReportSpeculation(state, result.batch);
}
BENCHMARK(BM_ParallelSearchUniform)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ParallelSearchPerVariable(benchmark::State& state) {
  PartitionSearchOptions options = ParallelSearchBenchOptions();
  ThreadPool pool(static_cast<int>(state.range(0)));
  options.concurrency = {&pool, 0};
  ArenaPool arenas;
  const PlanBatchMeasure batch = MakeBenchBatchMeasure(&pool, &arenas);
  const std::vector<PartitionSearchVariable> targets = PerVariableSearchTargets();
  SimulationArena arena;
  PartitionPlanSearchResult result;
  for (auto _ : state) {
    auto measure = [&](const PartitionPlan& plan) {
      IterationSimulator sim(ClusterSpec::Paper(), PerVariableSearchVariables(plan),
                             4e-3, 4, HybridSimConfig(), &arena);
      return sim.MeasureIterationSeconds();
    };
    result = SearchPartitionPlan(measure, batch, targets, options);
    benchmark::DoNotOptimize(result);
  }
  ReportSpeculation(state, result.batch);
}
BENCHMARK(BM_ParallelSearchPerVariable)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ParallelSearchWarmStart(benchmark::State& state) {
  PartitionSearchOptions options = ParallelSearchBenchOptions();
  ThreadPool pool(static_cast<int>(state.range(0)));
  options.concurrency = {&pool, 0};
  ArenaPool arenas;
  const PlanBatchMeasure batch = MakeBenchBatchMeasure(&pool, &arenas);
  std::vector<PartitionSearchVariable> targets = PerVariableSearchTargets();
  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    IterationSimulator sim(ClusterSpec::Paper(), PerVariableSearchVariables(plan),
                           4e-3, 4, HybridSimConfig(), &arena);
    return sim.MeasureIterationSeconds();
  };
  PartitionPlanSearchResult cold = SearchPartitionPlan(measure, targets, options);
  for (PartitionSearchVariable& target : targets) {
    target.previous_partitions = cold.plan.For(target.name);
    target.drifted = target.name == "embedding";
  }
  targets[0].alpha = 0.05;
  options.warm_start = true;
  PartitionPlanSearchResult result;
  for (auto _ : state) {
    result = SearchPartitionPlan(measure, batch, targets, options);
    benchmark::DoNotOptimize(result);
  }
  ReportSpeculation(state, result.batch);
}
BENCHMARK(BM_ParallelSearchWarmStart)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Placement trials are the widest independent-candidate stage (every piece-move of a
// swap round), so this is where speculation fans out hardest. 2 racks x 2 machines
// over an oversubscribed spine — the topology demo's scenario.
void BM_ParallelSearchPlacement(benchmark::State& state) {
  ClusterSpec spec;
  spec.num_machines = 4;
  spec.gpus_per_machine = 2;
  spec.cores_per_machine = 4;
  spec.nic_bandwidth = 1e9;
  spec.nic_latency = 1e-6;
  spec.pcie_bandwidth = 4e9;
  spec.pcie_latency = 1e-6;
  spec.topology.num_racks = 2;
  spec.topology.spine_bandwidth = 1e9;
  spec.topology.spine_latency = 5e-6;
  const std::vector<PartitionSearchVariable> targets = {
      {.name = "emb", .alpha = 0.3, .num_elements = 4'000'000, .max_partitions = 3},
      {.name = "softmax", .alpha = 0.5, .num_elements = 600'000, .max_partitions = 2}};
  auto apply_plan = [targets](const PartitionPlan& plan) {
    std::vector<VariableSync> variables;
    for (const PartitionSearchVariable& searched : targets) {
      VariableSync sync;
      sync.spec = {searched.name, searched.num_elements, 64, true, searched.alpha};
      sync.method = SyncMethod::kPs;
      sync.partitions =
          RowCappedPartitions(plan.For(searched.name), searched.max_partitions);
      const std::vector<int>* placement = plan.PlacementFor(searched.name);
      if (placement != nullptr &&
          static_cast<int>(placement->size()) == sync.partitions) {
        sync.placement = *placement;
      }
      variables.push_back(std::move(sync));
    }
    return variables;
  };
  IterationSimConfig sim_config;
  sim_config.ps_local_aggregation = true;
  sim_config.ps_machine_level_pulls = true;

  PartitionSearchOptions options;
  options.initial_partitions = 4;
  options.max_partitions = 16;
  options.placement.enabled = true;
  options.placement.num_machines = 4;
  options.placement.num_racks = 2;
  options.placement.nic_bandwidth = 1e9;
  options.placement.spine_bandwidth = 1e9;

  ThreadPool pool(static_cast<int>(state.range(0)));
  options.concurrency = {&pool, 0};
  ArenaPool arenas;
  ParallelMeasureSpec measure_spec;
  measure_spec.cluster = spec;
  measure_spec.apply_plan = apply_plan;
  measure_spec.gpu_compute_seconds = 2e-3;
  measure_spec.compute_chunks = 4;
  measure_spec.sim_config = sim_config;
  const PlanBatchMeasure batch = MakeParallelPlanMeasure(
      std::move(measure_spec), SearchConcurrency{&pool, 0}, &arenas);

  SimulationArena arena;
  PartitionPlanSearchResult result;
  for (auto _ : state) {
    auto measure = [&](const PartitionPlan& plan) {
      IterationSimulator sim(spec, apply_plan(plan), 2e-3, 4, sim_config, &arena);
      return sim.MeasureIterationSeconds();
    };
    result = SearchPartitionPlan(measure, batch, targets, options);
    benchmark::DoNotOptimize(result);
  }
  ReportSpeculation(state, result.batch);
}
BENCHMARK(BM_ParallelSearchPlacement)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---- Topology-aware collectives ------------------------------------------------------
//
// Simulated makespan of one AllReduce of `w` bytes per participant across M machines
// x 4 GPUs. The algorithms, each run on the cluster whose asymmetry it addresses:
//   0 = flat rank-level ring on a flat cluster: 2(MG-1) pipelined steps of w/(MG)
//       bytes, PCIe between same-machine neighbours, NIC across machines (the
//       topology-oblivious schedule where "N" in the ring formulas is the GPU count),
//   1 = two-level hierarchical on the same flat cluster (PCIe reduce, machine-level
//       NIC ring, PCIe broadcast) — must beat 0 at >= 2 machines,
//   2 = the same hierarchical schedule on the racked cluster (2 racks, 2:1
//       oversubscribed spine): the machine ring pays the spine on every crossing,
//   3 = rack-aware on the racked cluster (per-rack rings feeding cross-rack chunk
//       rings that traverse each spine link once per direction per step) — must beat 2.
// Wall time is schedule construction + event-loop cost; the makespan_us counter is the
// simulated collective latency docs/perf.md records.
ClusterSpec RackedBenchSpec(int machines, bool racked) {
  ClusterSpec spec;
  spec.num_machines = machines;
  spec.gpus_per_machine = 4;
  spec.nic_bandwidth = 1.25e9;
  spec.nic_latency = 5e-6;
  spec.pcie_bandwidth = 12e9;
  spec.pcie_latency = 2e-6;
  if (racked) {
    spec.topology.num_racks = 2;
    spec.topology.spine_bandwidth = 6.25e8;  // 2:1 oversubscription per rack
    spec.topology.spine_latency = 10e-6;
  }
  return spec;
}

// The flat baseline: a reduce-scatter + allgather pipeline over all MG ranks with the
// ring order a topology-unaware runtime produces — ranks interleaved across machines,
// so every hop crosses the NICs and each machine's NIC carries G chunks per step
// (versus one for the machine-major hierarchical ring). Each step every position
// forwards the chunk it just received to its successor; link FIFO order serializes a
// machine's concurrent sends.
void EmitFlatRankRing(TaskGraph& graph, const RankLayout& layout, int64_t bytes,
                      const CollectiveOptions& options) {
  const int n = layout.num_ranks();
  const int64_t chunk = std::max<int64_t>(bytes / n, 1);
  auto machine_of_position = [&](int p) { return p % layout.num_machines; };
  std::vector<TaskId> recv(static_cast<size_t>(n), kNoTask);
  for (int step = 0; step < 2 * (n - 1); ++step) {
    std::vector<TaskId> next(static_cast<size_t>(n), kNoTask);
    for (int p = 0; p < n; ++p) {
      const int to = (p + 1) % n;
      const int src = machine_of_position(p);
      const int dst = machine_of_position(to);
      const TaskId dep = recv[static_cast<size_t>(p)];
      const std::span<const TaskId> deps(&dep, dep == kNoTask ? 0u : 1u);
      next[static_cast<size_t>(to)] =
          src == dst ? graph.AddLocalTransfer(src, chunk, deps, options.step_overhead)
                     : graph.AddTransfer(src, dst, chunk, deps, options.step_overhead);
    }
    recv = std::move(next);
  }
}

void BM_HierarchicalAllReduce(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  const int algo = static_cast<int>(state.range(1));
  const int64_t bytes = 100'000'000;
  ClusterSpec spec = RackedBenchSpec(machines, /*racked=*/algo >= 2);
  RankLayout layout{machines, spec.gpus_per_machine};
  std::vector<TaskId> deps(static_cast<size_t>(layout.num_ranks()), kNoTask);
  CollectiveScheduleCache cache;
  TaskGraph graph;
  SimTime makespan = 0.0;
  for (auto _ : state) {
    Cluster cluster(spec);
    graph.Reset();
    switch (algo) {
      case 0:
        EmitFlatRankRing(graph, layout, bytes, CollectiveOptions{});
        break;
      case 1:
      case 2:
        AddHierarchicalAllReduce(graph, layout, bytes, deps, CollectiveOptions{}, &cache);
        break;
      default:
        AddTopologyAllReduce(graph, layout, spec.topology.num_racks, bytes, deps,
                             CollectiveOptions{}, &cache);
        break;
    }
    makespan = graph.Execute(cluster).makespan;
    benchmark::DoNotOptimize(makespan);
  }
  state.counters["makespan_us"] = makespan * 1e6;
}
BENCHMARK(BM_HierarchicalAllReduce)
    ->ArgNames({"machines", "algo"})
    ->Args({2, 0})->Args({2, 1})->Args({2, 2})->Args({2, 3})
    ->Args({4, 0})->Args({4, 1})->Args({4, 2})->Args({4, 3})
    ->Args({8, 0})->Args({8, 1})->Args({8, 2})->Args({8, 3});

// The placement pass of the per-variable search (cost_model.cc Phase 4) on a 2-rack
// cluster where round-robin stacks two heavy shards on one server: greedy
// bottleneck-utilization seeding plus measured-clock swap refinement. algo 0 = the
// placement-oblivious search (the baseline every sample of which the placed search
// also pays), 1 = with the placement pass. The seconds counter is each search's
// adopted simulated iteration time.
void BM_PlacementSearch(benchmark::State& state) {
  PartitionSearchOptions options;
  options.initial_partitions = 4;
  options.max_partitions = 16;
  if (state.range(0) == 1) {
    options.placement.enabled = true;
    options.placement.num_machines = 4;
    options.placement.num_racks = 2;
    options.placement.nic_bandwidth = 1e9;
    options.placement.spine_bandwidth = 1e9;
  }
  ClusterSpec spec;
  spec.num_machines = 4;
  spec.gpus_per_machine = 2;
  spec.cores_per_machine = 4;
  spec.nic_bandwidth = 1e9;
  spec.nic_latency = 1e-6;
  spec.pcie_bandwidth = 4e9;
  spec.pcie_latency = 1e-6;
  spec.topology.num_racks = 2;
  spec.topology.spine_bandwidth = 1e9;
  spec.topology.spine_latency = 5e-6;
  const std::vector<PartitionSearchVariable> targets = {
      {.name = "emb", .alpha = 0.3, .num_elements = 4'000'000, .max_partitions = 3},
      {.name = "softmax", .alpha = 0.5, .num_elements = 600'000, .max_partitions = 2}};
  SimulationArena arena;
  auto measure = [&](const PartitionPlan& plan) {
    std::vector<VariableSync> vars;
    for (const PartitionSearchVariable& searched : targets) {
      VariableSync sync;
      sync.spec = {searched.name, searched.num_elements, 64, true, searched.alpha};
      sync.method = SyncMethod::kPs;
      sync.partitions = RowCappedPartitions(plan.For(searched.name), searched.max_partitions);
      const std::vector<int>* placement = plan.PlacementFor(searched.name);
      if (placement != nullptr &&
          static_cast<int>(placement->size()) == sync.partitions) {
        sync.placement = *placement;
      }
      vars.push_back(std::move(sync));
    }
    IterationSimConfig config;
    config.ps_local_aggregation = true;
    config.ps_machine_level_pulls = true;
    IterationSimulator sim(spec, std::move(vars), 2e-3, 4, config, &arena);
    return sim.MeasureIterationSeconds();
  };
  double seconds = 0.0;
  for (auto _ : state) {
    PartitionPlanSearchResult result = SearchPartitionPlan(measure, targets, options);
    seconds = result.seconds;
    benchmark::DoNotOptimize(result);
  }
  state.counters["seconds"] = seconds;
}
BENCHMARK(BM_PlacementSearch)->ArgName("placed")->Arg(0)->Arg(1);

void BM_CostModelFit(benchmark::State& state) {
  std::vector<std::pair<int, double>> samples;
  for (int p : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    samples.emplace_back(p, 0.05 + 1.2 / p + 0.003 * p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitCostModel(samples));
  }
}
BENCHMARK(BM_CostModelFit);

// ---- Multi-variable fused aggregation (the SyncEngine step path) ---------------------
//
// A training step's sparse synchronization: V variables x R ranks of IndexedSlices,
// all through one MultiVariableSumStream workspace pass, as the PS engine runs it. Args
// are {per-rank nnz per variable, V, variable rows}: the first regime is a few large
// embeddings (the LM/NMT shape), the second many small embedding tables (the
// recommendation-model shape).

constexpr int kMultiRanks = 8;

std::vector<std::vector<IndexedSlices>> MakeMultiVarGrads(int64_t nnz, int64_t vars,
                                                          int64_t rows) {
  std::vector<std::vector<IndexedSlices>> per_var(static_cast<size_t>(vars));
  for (int64_t v = 0; v < vars; ++v) {
    for (int r = 0; r < kMultiRanks; ++r) {
      per_var[static_cast<size_t>(v)].push_back(
          MakeSlices(rows, 64, nnz, static_cast<uint64_t>(100 + v * kMultiRanks + r)));
    }
  }
  return per_var;
}

// The fused step path: every variable through one MultiVariableSumStream pass, each
// coalesced row scaled and applied in place — no intermediate gradient tensors.
void BM_MultiVarAggApplyFused(benchmark::State& state) {
  auto per_var = MakeMultiVarGrads(state.range(0), state.range(1), state.range(2));
  std::vector<Tensor> params;
  for (int64_t v = 0; v < state.range(1); ++v) {
    params.push_back(Tensor::Zeros(TensorShape({state.range(2), 64})));
  }
  std::vector<SparseSumGroup> groups(per_var.size());
  for (size_t v = 0; v < per_var.size(); ++v) {
    for (const IndexedSlices& s : per_var[v]) {
      groups[v].inputs.push_back(&s);
    }
  }
  SparseWorkspace ws;
  const float scale = 1.0f / static_cast<float>(kMultiRanks);
  for (auto _ : state) {
    MultiVariableSumStream(groups, &ws, [&](int64_t g, int64_t row, const float* values) {
      float* dst = params[static_cast<size_t>(g)].mutable_floats().data() + row * 64;
      for (int64_t j = 0; j < 64; ++j) {
        dst[j] -= 0.1f * (values[j] * scale);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(1) *
                          kMultiRanks * 64);
}
BENCHMARK(BM_MultiVarAggApplyFused)
    ->Args({1'000, 6, 100'000})
    ->Args({10'000, 6, 100'000})
    ->Args({256, 64, 8'192})
    ->Args({64, 256, 2'048});

// The fused step path with the sparsity monitor's nnz observation tap engaged: the
// stream additionally reports each group's coalesced row count (read off the segment
// table it builds anyway). Compare against BM_MultiVarAggApplyFused at equal args —
// the delta IS the observation overhead, and it must stay under 1% (docs/perf.md).
void BM_MultiVarAggApplyFusedObserved(benchmark::State& state) {
  auto per_var = MakeMultiVarGrads(state.range(0), state.range(1), state.range(2));
  std::vector<Tensor> params;
  for (int64_t v = 0; v < state.range(1); ++v) {
    params.push_back(Tensor::Zeros(TensorShape({state.range(2), 64})));
  }
  std::vector<SparseSumGroup> groups(per_var.size());
  for (size_t v = 0; v < per_var.size(); ++v) {
    for (const IndexedSlices& s : per_var[v]) {
      groups[v].inputs.push_back(&s);
    }
  }
  SparseWorkspace ws;
  std::vector<int64_t> unique_rows;
  int64_t observed_total = 0;
  const float scale = 1.0f / static_cast<float>(kMultiRanks);
  for (auto _ : state) {
    MultiVariableSumStream(groups, &ws, [&](int64_t g, int64_t row, const float* values) {
      float* dst = params[static_cast<size_t>(g)].mutable_floats().data() + row * 64;
      for (int64_t j = 0; j < 64; ++j) {
        dst[j] -= 0.1f * (values[j] * scale);
      }
    }, &unique_rows);
    for (int64_t rows : unique_rows) {
      observed_total += rows;  // what an attached SparseAccessObserver would consume
    }
  }
  benchmark::DoNotOptimize(observed_total);
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(1) *
                          kMultiRanks * 64);
}
BENCHMARK(BM_MultiVarAggApplyFusedObserved)
    ->Args({1'000, 6, 100'000})
    ->Args({10'000, 6, 100'000})
    ->Args({256, 64, 8'192})
    ->Args({64, 256, 2'048});

// ---- PS engine step with/without the nnz observation hook ----------------------------
//
// The whole synchronization step of the PS engine (dense AllReduce-style aggregation +
// fused sparse aggregate-and-apply) on real LM gradients, with and without a
// SparseAccessObserver attached. The delta is the total cost of the sparsity monitor's
// per-step tap: one segment-table read per variable plus one virtual call — <1% of the
// step (docs/perf.md).

class CountingObserver : public SparseAccessObserver {
 public:
  void ObserveSparseStep(int variable, int64_t unique_rows, int contributions) override {
    total_ += unique_rows + variable + contributions;
  }
  int64_t total() const { return total_; }

 private:
  int64_t total_ = 0;
};

void PsApplyStepBench(benchmark::State& state, bool observed) {
  WordLmModel model({.vocab_size = 50'000, .embedding_dim = 64, .hidden_dim = 64,
                     .batch_per_rank = 512, .seed = 21});
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  Rng rng(22);
  std::vector<StepResult> per_rank;
  for (const FeedMap& feeds : model.TrainShards(8, rng)) {
    per_rank.push_back(executor.RunStep(store, feeds, model.loss()));
  }
  PsNumericConfig config;
  config.local_aggregation = true;
  config.ranks_per_machine = 2;
  PsNumericEngine engine(model.graph(), config);
  CountingObserver observer;
  if (observed) {
    engine.set_observer(&observer);
  }
  for (auto _ : state) {
    engine.ApplyStep(per_rank, 0.01f);
  }
  benchmark::DoNotOptimize(observer.total());
  state.SetItemsProcessed(state.iterations());
}

void BM_PsApplyStep(benchmark::State& state) { PsApplyStepBench(state, false); }
BENCHMARK(BM_PsApplyStep);

void BM_PsApplyStepObserved(benchmark::State& state) { PsApplyStepBench(state, true); }
BENCHMARK(BM_PsApplyStepObserved);

// ---- Executor gradient buffer plan ---------------------------------------------------

void RunStepBench(benchmark::State& state, bool use_scratch) {
  WordLmModel model({.vocab_size = 2000, .embedding_dim = 64, .hidden_dim = 64,
                     .batch_per_rank = 64, .seed = 9});
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  Rng rng(10);
  FeedMap feeds = model.TrainShards(1, rng)[0];
  ExecScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.RunStep(store, feeds, model.loss(),
                                              use_scratch ? &scratch : nullptr));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(MatMulIsaLabel());
}

void BM_ExecutorRunStep(benchmark::State& state) { RunStepBench(state, false); }
BENCHMARK(BM_ExecutorRunStep);

void BM_ExecutorRunStepScratch(benchmark::State& state) { RunStepBench(state, true); }
BENCHMARK(BM_ExecutorRunStepScratch);

// One replica's compute in pxbench's skew workload: EmbeddingSkewModel at batch 64
// through RunStepInto with a persistent scratch and result, as GraphRunner drives it.
void BM_ExecutorRunStepSkew(benchmark::State& state) {
  EmbeddingSkewModel::Options options;
  options.batch_per_rank = 64;
  EmbeddingSkewModel model(options);
  Executor executor(model.graph());
  VariableStore store = VariableStore::InitFrom(*model.graph());
  Rng rng(11);
  FeedMap feeds = model.TrainShards(1, rng)[0];
  ExecScratch scratch;
  StepResult result;
  for (auto _ : state) {
    executor.RunStepInto(store, feeds, model.loss(), &scratch, &result);
    benchmark::DoNotOptimize(result.loss);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(MatMulIsaLabel());
}
BENCHMARK(BM_ExecutorRunStepSkew);

// ---- Runner step ----------------------------------------------------------------------

// One warm GraphRunner::Step of a built session: the step-start view, the replicas'
// compute (fanned out over PARALLAX_THREADS kernel-pool lanes), every engine's apply and
// the simulated iteration. Cycles through 16 pre-generated batches.
template <typename Model>
void RunnerStepBench(benchmark::State& state, Model& model, RunnerBuilder& builder) {
  auto built = builder.Build();
  PX_CHECK(built.ok()) << built.status().ToString();
  GraphRunner& runner = *built.value();
  Rng rng(12);
  std::vector<std::vector<FeedMap>> feeds;
  for (int i = 0; i < 16; ++i) {
    feeds.push_back(model.TrainShards(runner.num_ranks(), rng));
  }
  // The first step samples, searches and prepares; one pass over the batches warms
  // every scratch and result.
  for (const std::vector<FeedMap>& batch : feeds) {
    runner.Step(batch);
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.Step(feeds[next]));
    next = (next + 1) % feeds.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["lanes"] = GlobalSparsePool().num_threads();
  state.SetLabel(MatMulIsaLabel());
}

// pxbench's `lm` and `skew` sessions (pxbench/pxbench.cc): the same model options,
// 4 machines x 2 GPUs, and skew's 2 racks, per-variable partition and placement search,
// sync costs and compute profile.
void BM_RunnerStep(benchmark::State& state, bool skew) {
  if (!skew) {
    WordLmModel model({.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
                       .batch_per_rank = 32, .seed = 13});
    RunnerBuilder builder(model.graph(), model.loss());
    builder.WithResources(ResourceSpec::Homogeneous(4, 2)).WithLearningRate(0.5f);
    RunnerStepBench(state, model, builder);
    return;
  }
  EmbeddingSkewModel::Options options;
  options.batch_per_rank = 64;
  options.seed = 13;
  EmbeddingSkewModel model(options);
  ClusterSpec hardware = ClusterSpec::Paper();
  hardware.topology.num_racks = 2;
  SyncCostParams costs;
  costs.sparse_agg_seconds_per_element = 400e-9;
  costs.sparse_update_seconds_per_element = 20e-9;
  costs.sparse_flush_seconds_per_element = 2e-9;
  costs.worker_dispatch_seconds_per_piece = 150e-6;
  RunnerBuilder builder(model.graph(), model.loss());
  builder.WithResources(ResourceSpec::Homogeneous(4, 2))
      .WithHardware(hardware)
      .WithSearchMode(PartitionSearchMode::kPerVariable)
      .WithPlacementSearch(true)
      .WithSyncCosts(costs)
      .WithCompute(1e-3, 4)
      .WithLearningRate(0.1f);
  RunnerStepBench(state, model, builder);
}
BENCHMARK_CAPTURE(BM_RunnerStep, lm, false);
BENCHMARK_CAPTURE(BM_RunnerStep, skew, true);

// ---- Elastic rescale ------------------------------------------------------------------

// One grow + one shrink per iteration: shard migration cost estimation, stale-placement
// sanitization, partition re-search on the new cluster, and the engine re-Prepare pass
// (docs/elasticity.md). This is the full control-plane cost of a membership change.
void BM_RescaleMigration(benchmark::State& state) {
  WordLmModel model({.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 16,
                     .batch_per_rank = 32, .seed = 31});
  ParallaxConfig config;
  config.learning_rate = 0.1f;
  GraphRunner runner(model.graph(), model.loss(), ResourceSpec::Homogeneous(2, 1),
                     config);
  Rng rng(32);
  runner.Step(model.TrainShards(2, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.Rescale(ResourceSpec::Homogeneous(4, 1)));
    benchmark::DoNotOptimize(runner.Rescale(ResourceSpec::Homogeneous(2, 1)));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RescaleMigration);

// ---- Gradient compression kernels -----------------------------------------------------

// Top-k row selection over a pre-scored candidate set — the per-variable, per-rank
// inner loop of the "topk_ps" engine (src/sync/compression.h). Arg is the candidate
// count; k is 10% of it, the engine's default ratio. The nth_element path plus the
// ascending sort of the survivors is what calibration.h's compress_seconds_per_element
// summarizes on the simulated clock.
void BM_TopKCompress(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(41);
  std::vector<int64_t> rows(static_cast<size_t>(n));
  std::vector<float> scores(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows[static_cast<size_t>(i)] = i;
    scores[static_cast<size_t>(i)] = static_cast<float>(rng.NextDouble());
  }
  const int64_t k = std::max<int64_t>(1, n / 10);
  SparseWorkspace ws;
  std::vector<int64_t> selected;
  for (auto _ : state) {
    TopKSelectRows(rows, scores, k, selected, &ws);
    benchmark::DoNotOptimize(selected.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKCompress)->Arg(1'000)->Arg(10'000)->Arg(100'000);

// Per-row int8 quantize-dequantize over a [rows, 64] gradient block — the "int8_ps"
// engine's whole per-variable cost. In-place, allocation-free; items processed counts
// elements scanned (the unit of compress_seconds_per_element).
void BM_Int8Quantize(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t width = 64;
  Rng rng(42);
  Tensor values = RandomNormal(TensorShape({rows, width}), rng);
  std::vector<float> scales;
  for (auto _ : state) {
    QuantizeDequantizeInt8Rows(values.floats(), values.mutable_floats(), rows, width,
                               &scales);
    benchmark::DoNotOptimize(scales.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * width);
}
BENCHMARK(BM_Int8Quantize)->Arg(1'000)->Arg(10'000);

}  // namespace
}  // namespace parallax

BENCHMARK_MAIN();
