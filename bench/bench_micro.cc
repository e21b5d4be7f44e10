// Micro-benchmarks (google-benchmark) for the kernels whose costs the calibration
// constants model: sparse gradient coalescing and multi-slice sums (naive map reference
// vs the slot-table RowSlotSum, fresh vs reused state), scatter updates,
// partition stitch, the dense matmuls of the executor (seed loops vs register strips),
// its tanh and its softmax, the models' Gaussian initial values (seed loop vs vector
// lanes), the cost-model fit, ring-schedule construction, and task-graph execution
// throughput. Every bench that runs the vector kernels is labelled with the kernel ISA
// this CPU dispatches them to ("avx512", "avx2" or "vec4"), except BM_MatMulIsa,
// BM_TanhIsa and BM_SoftmaxIsa, which run their kernels on every kernel ISA the CPU
// supports side by side.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include <sys/resource.h>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"
#include "src/comm/collectives.h"
#include "src/core/api.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/graph/executor.h"
#include "src/models/trainable.h"
#include "src/ps/ps_numeric.h"
#include "src/service/planner_service.h"
#include "src/sync/compression.h"
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

// `inputs` summed from +0 on the slot table, in order: a coalesce for one input.
void SlotSum(const std::vector<IndexedSlices>& inputs, std::vector<int32_t>& table,
             RowSlotSum& sum) {
  const TensorShape& shape = inputs.front().dense_shape();
  int64_t pairs = 0;
  for (const IndexedSlices& input : inputs) {
    pairs += input.nnz_rows();
  }
  table.resize(std::max(table.size(), static_cast<size_t>(shape.dim(0))), -1);
  sum.Begin(table, shape.row_elements(), std::min(shape.dim(0), pairs),
            RowSlotSum::Start::kFromZero);
  for (const IndexedSlices& input : inputs) {
    sum.Add(input);
  }
  sum.End();
}

// The slot pass over one input, on a table and sum made fresh per call.
void BM_SparseCoalesce(benchmark::State& state) {
  const std::vector<IndexedSlices> inputs = {MakeSlices(100'000, 64, state.range(0), 1)};
  for (auto _ : state) {
    std::vector<int32_t> table;
    RowSlotSum sum;
    SlotSum(inputs, table, sum);
    benchmark::DoNotOptimize(sum.sum(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_SparseCoalesce)->Arg(1'000)->Arg(10'000)->Arg(50'000);

// The same on one table and sum reused across calls.
void BM_SparseCoalesceReuse(benchmark::State& state) {
  const std::vector<IndexedSlices> inputs = {MakeSlices(100'000, 64, state.range(0), 1)};
  std::vector<int32_t> table;
  RowSlotSum sum;
  for (auto _ : state) {
    SlotSum(inputs, table, sum);
    benchmark::DoNotOptimize(sum.sum(0));
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

// The slot pass over the same 8 inputs, on a reused table and sum.
void BM_SparseSumSlots(benchmark::State& state) {
  std::vector<IndexedSlices> slices;
  for (int k = 0; k < 8; ++k) {
    slices.push_back(
        MakeSlices(100'000, 64, state.range(0), static_cast<uint64_t>(10 + k)));
  }
  std::vector<int32_t> table;
  RowSlotSum sum;
  for (auto _ : state) {
    SlotSum(slices, table, sum);
    benchmark::DoNotOptimize(sum.sum(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8 * 64);
}
BENCHMARK(BM_SparseSumSlots)->Arg(1'000)->Arg(10'000)->Arg(50'000);

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

// The kernel ISA the public vector kernels run on this CPU, as a bench label.
const char* KernelIsaLabel() { return internal::KernelIsaName(internal::ActiveKernelIsa()); }

void BM_MatMul(benchmark::State& state) {
  Rng rng(6);
  int64_t n = state.range(0);
  Tensor a = RandomNormal(TensorShape({n, n}), rng);
  Tensor b = RandomNormal(TensorShape({n, n}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(KernelIsaLabel());
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
    state.SetLabel(KernelIsaLabel());
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
    state.SetLabel(KernelIsaLabel());
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

// ---- Kernel ISAs side by side ----

enum class MatMulKind { kMatMul, kTransposeA, kTransposeB };

struct MatMulIsaShape {
  std::string name;
  MatMulKind kind;
  int64_t m;
  int64_t k;
  int64_t n;
  // One element of A set to zero: MatMul and MatMulTransposeA then run the one-row
  // strips that skip the zero's terms, not the tiles.
  bool lone_zero = false;
};

// The six matmuls of one replica of WordLmModel or EmbeddingSkewModel (`batch` rows and
// as many sampled classes, embedding width `embedding`, hidden width `hidden`), as the
// executor runs them: C[m, n] with inner dimension k.
std::vector<MatMulIsaShape> ReplicaMatMuls(const std::string& model, int64_t batch,
                                           int64_t embedding, int64_t hidden) {
  return {
      {model + "/hidden", MatMulKind::kMatMul, batch, embedding, hidden},     // x . w1
      {model + "/logits", MatMulKind::kTransposeB, batch, hidden, batch},     // h . s^T
      {model + "/dh", MatMulKind::kMatMul, batch, batch, hidden},             // g . s
      {model + "/dselected", MatMulKind::kTransposeA, batch, batch, hidden},  // g^T . h
      {model + "/dx", MatMulKind::kTransposeB, batch, hidden, embedding},     // dh . w1^T
      {model + "/dw1", MatMulKind::kTransposeA, embedding, batch, hidden},    // x^T . dh
  };
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// One kernel on every kernel ISA this CPU supports, in one process: each iteration calls
// run(isa, slot) 8 times per ISA (slot, below 3, is the ISA's index, for its own
// output), the ISAs in a fresh random order, so all of them see the same host conditions
// (on a shared host the same matmul code read 10.8 and 16.7 us in two processes).
// Counters: each ISA's median time per call (<isa>_us), and the median over iterations
// of each ISA's time over the next narrower one's in the same iteration (avx2_over_vec4,
// avx512_over_avx2).
void TimeEveryIsa(benchmark::State& state,
                  const std::function<void(internal::KernelIsa isa, size_t slot)>& run) {
  using internal::KernelIsa;
  std::vector<KernelIsa> isas;
  for (KernelIsa isa : {KernelIsa::kVec4, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (internal::KernelIsaSupported(isa)) {
      isas.push_back(isa);
    }
  }
  constexpr int kCalls = 8;
  std::vector<std::vector<double>> seconds(isas.size());
  std::vector<size_t> order(isas.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 shuffle_rng(16);
  for (auto _ : state) {
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    for (size_t i : order) {
      const auto start = std::chrono::steady_clock::now();
      for (int call = 0; call < kCalls; ++call) {
        run(isas[i], i);
        benchmark::ClobberMemory();
      }
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      seconds[i].push_back(elapsed.count() / kCalls);
    }
  }
  for (size_t i = 0; i < isas.size(); ++i) {
    const std::string name = internal::KernelIsaName(isas[i]);
    state.counters[name + "_us"] = Median(seconds[i]) * 1e6;
    if (i > 0) {
      std::vector<double> ratios;
      for (size_t r = 0; r < seconds[i].size(); ++r) {
        ratios.push_back(seconds[i][r] / seconds[i - 1][r]);
      }
      state.counters[name + "_over_" + internal::KernelIsaName(isas[i - 1])] = Median(ratios);
    }
  }
}

// One matmul of a replica on every kernel ISA, side by side (TimeEveryIsa).
void BM_MatMulIsa(benchmark::State& state, const MatMulIsaShape& shape) {
  using internal::KernelIsa;
  const int64_t m = shape.m;
  const int64_t k = shape.k;
  const int64_t n = shape.n;
  Rng rng(15);
  Tensor a = RandomNormal(shape.kind == MatMulKind::kTransposeA ? TensorShape({k, m})
                                                                : TensorShape({m, k}),
                          rng);
  if (shape.lone_zero) {
    a.mutable_floats()[static_cast<size_t>(m * k / 2)] = 0.0f;
  }
  Tensor b = RandomNormal(shape.kind == MatMulKind::kTransposeB ? TensorShape({n, k})
                                                                : TensorShape({k, n}),
                          rng);
  void (*kernel)(KernelIsa, Tensor&, const Tensor&, const Tensor&) =
      shape.kind == MatMulKind::kMatMul       ? internal::MatMulInto
      : shape.kind == MatMulKind::kTransposeA ? internal::MatMulTransposeAInto
                                              : internal::MatMulTransposeBInto;
  std::vector<Tensor> outs(3);
  TimeEveryIsa(state, [&](KernelIsa isa, size_t slot) {
    kernel(isa, outs[slot], a, b);
    benchmark::DoNotOptimize(outs[slot].floats().data());
  });
  state.SetLabel(StrFormat("%ldx%ldx%ld", static_cast<long>(m), static_cast<long>(k),
                           static_cast<long>(n)));
}

// skew's and lm's replicas (pxbench's options), and the lm tenants' (hidden width 24,
// embedding 16 + 4 * family for families 0-3), each distinct shape once, plus lm's
// hidden layer with one zero in its input (the skipping strips' time).
const bool kMatMulIsaRegistered = [] {
  std::vector<MatMulIsaShape> shapes = ReplicaMatMuls("skew", 64, 32, 128);
  for (const MatMulIsaShape& shape : ReplicaMatMuls("lm", 32, 32, 48)) {
    shapes.push_back(shape);
  }
  shapes.push_back({"lm/hidden_zero", MatMulKind::kMatMul, 32, 32, 48, /*lone_zero=*/true});
  for (int64_t embedding : {16, 20, 24, 28}) {
    for (const MatMulIsaShape& shape :
         ReplicaMatMuls(StrFormat("lm_tenant_e%ld", static_cast<long>(embedding)), 32,
                        embedding, 24)) {
      shapes.push_back(shape);
    }
  }
  std::set<std::tuple<MatMulKind, int64_t, int64_t, int64_t, bool>> seen;
  for (const MatMulIsaShape& shape : shapes) {
    if (seen.insert({shape.kind, shape.m, shape.k, shape.n, shape.lone_zero}).second) {
      benchmark::RegisterBenchmark(("BM_MatMulIsa/" + shape.name).c_str(), BM_MatMulIsa, shape);
    }
  }
  return true;
}();

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

// The pre-activations of a model's hidden layer at the executor's real shapes: skew
// (EmbeddingSkewModel, batch 64) is [64, 128], lm (WordLmModel in pxbench) is [32, 48],
// both from a forward pass on the initial values. A word LM's grow as it trains (pxbench's
// lm reaches |x| of 4 to 7 within its first thousand steps, while skew's stay below
// 0.25), so lm_trained stands in for them: lm's shape, normal values of stddev 2.
enum class TanhInput { kSkew, kLm, kLmTrained };

Tensor TanhBenchInput(TanhInput input) {
  if (input == TanhInput::kSkew) {
    EmbeddingSkewModel::Options options;
    options.batch_per_rank = 64;
    EmbeddingSkewModel model(options);
    return HiddenPreActivation(model, 14);
  }
  if (input == TanhInput::kLmTrained) {
    Rng rng(14);
    return RandomNormal(TensorShape({32, 48}), rng, 2.0f);
  }
  WordLmModel model({.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
                     .batch_per_rank = 32, .seed = 13});
  return HiddenPreActivation(model, 14);
}

// The hidden layer's tanh at those shapes and values, on the library's vector cores
// (labelled with the dispatched instantiation) or, for BM_TanhLibm, through the loop it
// replaced: one call of libm's tanhf per element. max_abs_x echoes how large the
// pre-activations are: strips whose lanes all have |x| < 0.52 take the narrow core,
// about three times cheaper than the wide core that the rest take.
template <bool kLibm>
void TanhBench(benchmark::State& state, TanhInput input) {
  const Tensor x = TanhBenchInput(input);
  Tensor out = Tensor::Zeros(x.shape());
  for (auto _ : state) {
    if (kLibm) {
      auto src = x.floats();
      float* dst = out.mutable_floats().data();
      for (size_t i = 0; i < src.size(); ++i) {
        dst[i] = std::tanh(src[i]);
      }
    } else {
      TanhInto(out, x);
    }
    benchmark::DoNotOptimize(out.floats().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.num_elements());
  float max_abs = 0.0f;
  for (float v : x.floats()) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  state.counters["max_abs_x"] = max_abs;
  if (!kLibm) {
    state.SetLabel(KernelIsaLabel());
  }
}

void BM_TanhInto(benchmark::State& state, TanhInput input) { TanhBench<false>(state, input); }
BENCHMARK_CAPTURE(BM_TanhInto, skew, TanhInput::kSkew);
BENCHMARK_CAPTURE(BM_TanhInto, lm, TanhInput::kLm);
BENCHMARK_CAPTURE(BM_TanhInto, lm_trained, TanhInput::kLmTrained);
void BM_TanhLibm(benchmark::State& state, TanhInput input) { TanhBench<true>(state, input); }
BENCHMARK_CAPTURE(BM_TanhLibm, skew, TanhInput::kSkew);
BENCHMARK_CAPTURE(BM_TanhLibm, lm, TanhInput::kLm);
BENCHMARK_CAPTURE(BM_TanhLibm, lm_trained, TanhInput::kLmTrained);

// The hidden layer's tanh on every kernel ISA, side by side (TimeEveryIsa), on the same
// inputs as BM_TanhInto.
void BM_TanhIsa(benchmark::State& state, TanhInput input) {
  const Tensor x = TanhBenchInput(input);
  std::vector<Tensor> outs(3);
  TimeEveryIsa(state, [&](internal::KernelIsa isa, size_t slot) {
    internal::TanhInto(isa, outs[slot], x);
    benchmark::DoNotOptimize(outs[slot].floats().data());
  });
}
BENCHMARK_CAPTURE(BM_TanhIsa, skew, TanhInput::kSkew);
BENCHMARK_CAPTURE(BM_TanhIsa, lm, TanhInput::kLm);
BENCHMARK_CAPTURE(BM_TanhIsa, lm_trained, TanhInput::kLmTrained);

// The logits and labels a model's loss node reads, from a forward pass on the initial
// values and one training shard.
template <typename Model>
std::pair<Tensor, Tensor> LossInputs(Model& model, uint64_t seed) {
  const Graph& graph = *model.graph();
  const Node& loss = graph.nodes()[static_cast<size_t>(model.loss())];
  Rng rng(seed);
  FeedMap feeds = model.TrainShards(1, rng)[0];
  Tensor logits =
      Executor(&graph).RunForward(VariableStore::InitFrom(graph), feeds, loss.inputs[0]);
  return {std::move(logits), feeds.at(loss.inputs[1])};
}

// The sampled softmax's logits at the executor's real shapes: skew (EmbeddingSkewModel,
// batch 64) is [64, 64], lm (WordLmModel in pxbench) is [32, 32], both from a forward
// pass on the initial values. lm_trained stands in for a trained lm's logits: lm's
// shape, normal values of stddev 4. (The exp's vector lanes cost the same on any finite
// values.)
enum class SoftmaxInput { kSkew, kLm, kLmTrained };

std::pair<Tensor, Tensor> SoftmaxBenchInputs(SoftmaxInput input) {
  if (input == SoftmaxInput::kSkew) {
    EmbeddingSkewModel::Options options;
    options.batch_per_rank = 64;
    EmbeddingSkewModel model(options);
    return LossInputs(model, 14);
  }
  if (input == SoftmaxInput::kLmTrained) {
    Rng rng(14);
    return {RandomNormal(TensorShape({32, 32}), rng, 4.0f), Tensor()};
  }
  WordLmModel model({.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
                     .batch_per_rank = 32, .seed = 13});
  return LossInputs(model, 14);
}

// The loss node's forward pass: SoftmaxCrossEntropyInto as a replica runs it (labelled
// with the dispatched instantiation) or, for BM_SoftmaxLibm, the loop it replaced: the
// seed's softmax with one call of libm's expf per element, then the same mean log loss.
template <bool kLibm>
void SoftmaxBench(benchmark::State& state, SoftmaxInput input) {
  const auto [logits, labels] = SoftmaxBenchInputs(input);
  const int64_t rows = logits.shape().dim(0);
  const int64_t cols = logits.shape().dim(1);
  Tensor probs = Tensor::Zeros(logits.shape());
  for (auto _ : state) {
    float loss;
    if (kLibm) {
      NaiveSoftmaxRowsInto(probs.mutable_floats().data(), logits.floats().data(), rows, cols,
                           [](float x) { return std::exp(x); });
      double sum = 0.0;
      for (int64_t r = 0; r < rows; ++r) {
        sum -= std::log(std::max(probs.floats()[static_cast<size_t>(
                                     r * cols + labels.ints()[static_cast<size_t>(r)])],
                                 1e-12f));
      }
      loss = static_cast<float>(sum / static_cast<double>(rows));
    } else {
      loss = SoftmaxCrossEntropyInto(probs, logits, labels, nullptr);
    }
    benchmark::DoNotOptimize(loss);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * logits.num_elements());
  if (!kLibm) {
    state.SetLabel(KernelIsaLabel());
  }
}

void BM_SoftmaxCrossEntropy(benchmark::State& state, SoftmaxInput input) {
  SoftmaxBench<false>(state, input);
}
BENCHMARK_CAPTURE(BM_SoftmaxCrossEntropy, skew, SoftmaxInput::kSkew);
BENCHMARK_CAPTURE(BM_SoftmaxCrossEntropy, lm, SoftmaxInput::kLm);
void BM_SoftmaxLibm(benchmark::State& state, SoftmaxInput input) {
  SoftmaxBench<true>(state, input);
}
BENCHMARK_CAPTURE(BM_SoftmaxLibm, skew, SoftmaxInput::kSkew);
BENCHMARK_CAPTURE(BM_SoftmaxLibm, lm, SoftmaxInput::kLm);

// The loss node's softmax on every kernel ISA, side by side (TimeEveryIsa).
void BM_SoftmaxIsa(benchmark::State& state, SoftmaxInput input) {
  const Tensor logits = SoftmaxBenchInputs(input).first;
  std::vector<Tensor> outs(3);
  TimeEveryIsa(state, [&](internal::KernelIsa isa, size_t slot) {
    internal::SoftmaxRowsInto(isa, outs[slot], logits);
    benchmark::DoNotOptimize(outs[slot].floats().data());
  });
}
BENCHMARK_CAPTURE(BM_SoftmaxIsa, skew, SoftmaxInput::kSkew);
BENCHMARK_CAPTURE(BM_SoftmaxIsa, lm, SoftmaxInput::kLm);
BENCHMARK_CAPTURE(BM_SoftmaxIsa, lm_trained, SoftmaxInput::kLmTrained);

// The Gaussian initial values a model's constructor draws, at pxbench's shapes: lm
// (WordLmModel's 2000x32 embedding and 2000x48 softmax, 160 000 values) and skew
// (EmbeddingSkewModel's 4096x32 hot embedding and 128x128 wide softmax, 147 456).
enum class InitShapes { kLm, kSkew };

std::vector<TensorShape> InitBenchShapes(InitShapes shapes) {
  if (shapes == InitShapes::kLm) {
    return {TensorShape({2000, 32}), TensorShape({2000, 48})};
  }
  return {TensorShape({4096, 32}), TensorShape({128, 128})};
}

// Those draws through RandomNormal (labelled with the dispatched kernel ISA) or, for
// BM_RandomNormalSeedLoop, through the loop it replaced: one Box–Muller value with libm's
// log and cos per element. fallback_lanes counts the values of one iteration that the
// guard sent back to libm.
template <bool kSeedLoop>
void RandomNormalBench(benchmark::State& state, InitShapes shapes) {
  std::vector<Tensor> values;
  for (const TensorShape& shape : InitBenchShapes(shapes)) {
    values.push_back(Tensor::Zeros(shape));
  }
  int64_t elements = 0;
  for (auto _ : state) {
    Rng rng(13);
    elements = 0;
    for (Tensor& value : values) {
      if (kSeedLoop) {
        NaiveRandomNormalInto(value.mutable_floats(), rng, 0.1f);
      } else {
        RandomNormalInto(value.mutable_floats(), rng, 0.1f);
      }
      benchmark::DoNotOptimize(value.floats().data());
      elements += value.num_elements();
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * elements);
  if (!kSeedLoop) {
    // The same draws again, through the kernel entry that counts fallbacks.
    Rng rng(13);
    int64_t fallbacks = 0;
    for (const Tensor& value : values) {
      std::vector<double> u1(static_cast<size_t>(value.num_elements()));
      std::vector<double> u2(u1.size());
      for (size_t i = 0; i < u1.size(); ++i) {
        u1[i] = rng.NextDouble();
        u2[i] = rng.NextDouble();
      }
      std::vector<float> out(u1.size());
      fallbacks += internal::GaussiansInto(internal::ActiveKernelIsa(), u1, u2, 0.1f, out);
    }
    state.counters["fallback_lanes"] = static_cast<double>(fallbacks);
    state.SetLabel(KernelIsaLabel());
  }
}

void BM_RandomNormal(benchmark::State& state, InitShapes shapes) {
  RandomNormalBench<false>(state, shapes);
}
BENCHMARK_CAPTURE(BM_RandomNormal, lm, InitShapes::kLm);
BENCHMARK_CAPTURE(BM_RandomNormal, skew, InitShapes::kSkew);
void BM_RandomNormalSeedLoop(benchmark::State& state, InitShapes shapes) {
  RandomNormalBench<true>(state, shapes);
}
BENCHMARK_CAPTURE(BM_RandomNormalSeedLoop, lm, InitShapes::kLm);
BENCHMARK_CAPTURE(BM_RandomNormalSeedLoop, skew, InitShapes::kSkew);

// The AllReduce over n one-GPU machines, built from scratch each iteration: a fresh
// cache builds the plan and a fresh graph takes it.
void BM_RingAllReduceSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
  ClusterSpec spec = ClusterSpec::SingleGpuMachines(n);
  CollectiveSchedule schedule;
  for (auto _ : state) {
    Cluster cluster(spec);
    TaskGraph graph;
    CollectiveScheduleCache cache;
    cache.Instantiate(cache.AllReduce(RankLayout{n, 1}, 1, 100'000'000, CollectiveOptions{}),
                      graph, deps, &schedule);
    benchmark::DoNotOptimize(graph.Execute(cluster));
  }
}
BENCHMARK(BM_RingAllReduceSchedule)->Arg(8)->Arg(32);

// Steady-state path: the plan is cached and replayed into a reused graph arena.
void BM_RingAllReduceScheduleCached(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<TaskId> deps(static_cast<size_t>(n), kNoTask);
  ClusterSpec spec = ClusterSpec::SingleGpuMachines(n);
  CollectiveScheduleCache cache;
  CollectiveSchedule schedule;
  TaskGraph graph;
  for (auto _ : state) {
    Cluster cluster(spec);
    graph.Reset();
    cache.Instantiate(cache.AllReduce(RankLayout{n, 1}, 1, 100'000'000, CollectiveOptions{}),
                      graph, deps, &schedule);
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
    benchmark::DoNotOptimize(
        SearchPartitionPlan(measure, targets, ClusterSpec::Paper(), options));
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
  PartitionPlanSearchResult cold =
      SearchPartitionPlan(measure, targets, ClusterSpec::Paper(), options);
  for (PartitionSearchVariable& target : targets) {
    target.previous_partitions = cold.plan.For(target.name);
    target.drifted = target.name == "embedding";  // only the embedding's alpha moved
  }
  targets[0].alpha = 0.05;
  PartitionSearchOptions warm_options = options;
  warm_options.warm_start = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SearchPartitionPlan(measure, targets, ClusterSpec::Paper(), warm_options));
  }
}
BENCHMARK(BM_PerVariableSearchWarmStart);

// ---- Topology-aware collectives ------------------------------------------------------
//
// Simulated makespan of one AllReduce of `w` bytes per participant across M machines
// x 4 GPUs. The algorithms, each run on the cluster whose asymmetry it addresses:
//   0 = flat rank-level ring on a flat cluster: 2(MG-1) pipelined steps of w/(MG)
//       bytes, PCIe between same-machine neighbours, NIC across machines (the
//       topology-oblivious schedule where "N" in the ring formulas is the GPU count),
//   1 = the AllReduce at one rack on the same flat cluster (PCIe reduce, machine-level
//       NIC ring, PCIe broadcast) — must beat 0 at >= 2 machines,
//   2 = the same one-rack AllReduce on the racked cluster (2 racks, 2:1
//       oversubscribed spine): the machine ring pays the spine on every crossing,
//   3 = the AllReduce at the racked cluster's two racks (per-rack rings feeding
//       cross-rack chunk rings that traverse each spine link once per direction per
//       step) — must beat 2.
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
// (versus one for the AllReduce's machine-major ring). Each step every position
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
  CollectiveSchedule schedule;
  TaskGraph graph;
  SimTime makespan = 0.0;
  for (auto _ : state) {
    Cluster cluster(spec);
    graph.Reset();
    if (algo == 0) {
      EmitFlatRankRing(graph, layout, bytes, CollectiveOptions{});
    } else {
      const int num_racks = algo == 3 ? spec.topology.num_racks : 1;
      cache.Instantiate(cache.AllReduce(layout, num_racks, bytes, CollectiveOptions{}), graph,
                        deps, &schedule);
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
    options.placement = true;
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
    PartitionPlanSearchResult result = SearchPartitionPlan(measure, targets, spec, options);
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

// ---- Multi-variable aggregation (the SyncEngine step path) ---------------------------
//
// A training step's sparse synchronization: V variables x R ranks of IndexedSlices, each
// variable summed on its own slot table and every summed row scaled and applied in
// place, as the PS engine's global level runs it. Each bench cycles through 16 gradient
// sets made up front: replaying one set in a hot loop lets the branch predictor learn
// its rows, which a step on fresh gradients never sees. Args are {per-rank nnz per
// variable, V, variable rows}: the first regime is a few large embeddings (the LM/NMT
// shape), the second many small embedding tables (the recommendation-model shape).
// Synthetic sets share their values across sets (only the row ids differ); the `lm` and
// `skew` captures run the gradients of pxbench's models, computed by the executor. The
// `lanes` counter echoes PARALLAX_THREADS: the sum is serial, so lanes should not move
// the rows.

constexpr int kMultiRanks = 8;
constexpr int kGradientSets = 16;

// Per set, per variable, each rank's gradient.
using GradientSets = std::vector<std::vector<std::vector<const IndexedSlices*>>>;

// Synthetic sets: [rows, 64] tables, per-rank row ids uniform over the rows.
struct SyntheticGradients {
  std::vector<IndexedSlices> slices;  // owns every set's gradients
  GradientSets sets;
  std::vector<Tensor> params;

  SyntheticGradients(int64_t nnz, int64_t vars, int64_t rows) {
    std::vector<Tensor> values;
    for (int64_t v = 0; v < vars * kMultiRanks; ++v) {
      Rng rng(static_cast<uint64_t>(100 + v));
      values.push_back(RandomNormal(TensorShape({nnz, 64}), rng));
    }
    Rng rng(99);
    for (int set = 0; set < kGradientSets; ++set) {
      for (int64_t v = 0; v < vars * kMultiRanks; ++v) {
        std::vector<int64_t> indices(static_cast<size_t>(nnz));
        for (int64_t& index : indices) {
          index = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(rows)));
        }
        slices.emplace_back(std::move(indices), values[static_cast<size_t>(v)],
                            TensorShape({rows, 64}));
      }
    }
    size_t next = 0;
    sets.resize(kGradientSets);
    for (auto& set : sets) {
      set.resize(static_cast<size_t>(vars));
      for (auto& per_rank : set) {
        for (int r = 0; r < kMultiRanks; ++r) {
          per_rank.push_back(&slices[next++]);
        }
      }
    }
    for (int64_t v = 0; v < vars; ++v) {
      params.push_back(Tensor::Zeros(TensorShape({rows, 64})));
    }
  }
};

// A model's gradients on 8 ranks: kGradientSets sets of every rank's gradients, each
// set computed at the initial values on its own batch.
struct ModelGradients {
  std::shared_ptr<void> model;                    // keeps `graph` alive
  Graph* graph = nullptr;
  std::vector<std::vector<StepResult>> per_rank;  // [set][rank]
  std::vector<int> sparse;                        // the sparse variables
  std::vector<Tensor> params;                     // their initial values
};

template <typename Model>
ModelGradients ComputeGradients(std::shared_ptr<Model> model) {
  ModelGradients out;
  out.graph = model->graph();
  Executor executor(out.graph);
  VariableStore store = VariableStore::InitFrom(*out.graph);
  Rng rng(22);
  for (int set = 0; set < kGradientSets; ++set) {
    std::vector<StepResult> per_rank;
    for (const FeedMap& feeds : model->TrainShards(kMultiRanks, rng)) {
      per_rank.push_back(executor.RunStep(store, feeds, model->loss()));
    }
    out.per_rank.push_back(std::move(per_rank));
  }
  for (const auto& [v, grad] : out.per_rank.front().front().grads) {
    if (grad.is_sparse()) {
      out.sparse.push_back(v);
    }
  }
  std::sort(out.sparse.begin(), out.sparse.end());
  for (int v : out.sparse) {
    out.params.push_back(store.Get(v).Clone());
  }
  out.model = std::move(model);
  return out;
}

// kSynthetic takes its shape from the bench's args (SyntheticGradients); the others
// are models: a 50 000-row LM at batch 512 per rank, and pxbench's `lm` and `skew`.
enum class GradientModel { kSynthetic, kVocab50k, kLm, kSkew };

ModelGradients GradientsOf(GradientModel which) {
  PX_CHECK(which != GradientModel::kSynthetic);
  if (which == GradientModel::kSkew) {
    EmbeddingSkewModel::Options options;
    options.batch_per_rank = 64;
    options.seed = 21;
    return ComputeGradients(std::make_shared<EmbeddingSkewModel>(options));
  }
  return ComputeGradients(std::make_shared<WordLmModel>(
      which == GradientModel::kLm
          ? WordLmModel::Options{.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
                                 .batch_per_rank = 32, .seed = 21}
          : WordLmModel::Options{.vocab_size = 50'000, .embedding_dim = 64,
                                 .hidden_dim = 64, .batch_per_rank = 512, .seed = 21}));
}

GradientSets SparseSetsOf(const ModelGradients& gradients) {
  GradientSets sets;
  for (const std::vector<StepResult>& per_rank : gradients.per_rank) {
    auto& set = sets.emplace_back();
    for (int v : gradients.sparse) {
      auto& ranks = set.emplace_back();
      for (const StepResult& result : per_rank) {
        ranks.push_back(&result.grads.at(v).sparse());
      }
    }
  }
  return sets;
}

// One step of the slot pass over `set`, variable by variable: every rank's pairs on
// the variable's table (a row one rank contributes is read in place), then each summed
// row scaled and applied to `params`. Returns the distinct rows summed, what an
// attached SparseAccessObserver would be told.
int64_t SlotSumAndApply(const std::vector<std::vector<const IndexedSlices*>>& set,
                        std::vector<Tensor>& params,
                        std::vector<std::vector<int32_t>>& tables, RowSlotSum& sum) {
  const float scale = 1.0f / static_cast<float>(kMultiRanks);
  int64_t distinct = 0;
  tables.resize(set.size());
  for (size_t v = 0; v < set.size(); ++v) {
    Tensor& param = params[v];
    const int64_t rows = param.shape().dim(0);
    const int64_t width = param.shape().row_elements();
    std::vector<int32_t>& table = tables[v];
    table.resize(std::max(table.size(), static_cast<size_t>(rows)), -1);
    int64_t pairs = 0;
    for (const IndexedSlices* grad : set[v]) {
      pairs += grad->nnz_rows();
    }
    sum.Begin(table, width, std::min(rows, pairs), RowSlotSum::Start::kKeepSingle);
    for (const IndexedSlices* grad : set[v]) {
      sum.Add(*grad);
    }
    sum.End();
    float* base = param.mutable_floats().data();
    for (int64_t s = 0; s < sum.size(); ++s) {
      SgdUpdateRow(base + sum.row(s) * width, sum.sum(s), width, 0.1f, /*average=*/true,
                   scale);
    }
    distinct += sum.size();
  }
  return distinct;
}

void MultiVarAggBench(benchmark::State& state, const GradientSets& sets,
                      std::vector<Tensor>& params, bool observed) {
  std::vector<std::vector<int32_t>> tables;
  RowSlotSum sum;
  int64_t observed_total = 0;
  int64_t pairs = 0;
  size_t next = 0;
  for (auto _ : state) {
    const int64_t distinct = SlotSumAndApply(sets[next], params, tables, sum);
    benchmark::ClobberMemory();
    if (observed) {
      observed_total += distinct;
    }
    for (const auto& per_rank : sets[next]) {
      for (const IndexedSlices* grad : per_rank) {
        pairs += grad->nnz_rows();
      }
    }
    next = (next + 1) % sets.size();
  }
  benchmark::DoNotOptimize(observed_total);
  state.SetItemsProcessed(pairs);
  state.counters["lanes"] = GlobalSparsePool().num_threads();
}

void MultiVarAgg(benchmark::State& state, GradientModel which, bool observed) {
  if (which == GradientModel::kSynthetic) {
    SyntheticGradients gradients(state.range(0), state.range(1), state.range(2));
    MultiVarAggBench(state, gradients.sets, gradients.params, observed);
    return;
  }
  ModelGradients gradients = GradientsOf(which);
  MultiVarAggBench(state, SparseSetsOf(gradients), gradients.params, observed);
}

// The step path: every variable summed on its table, each summed row scaled and applied
// in place — no intermediate gradient tensors. Items are the pairs summed.
void BM_MultiVarAggApplyFused(benchmark::State& state, GradientModel which) {
  MultiVarAgg(state, which, false);
}
BENCHMARK_CAPTURE(BM_MultiVarAggApplyFused, synthetic, GradientModel::kSynthetic)
    ->Args({1'000, 6, 100'000})
    ->Args({10'000, 6, 100'000})
    ->Args({256, 64, 8'192})
    ->Args({64, 256, 2'048});
BENCHMARK_CAPTURE(BM_MultiVarAggApplyFused, lm, GradientModel::kLm);
BENCHMARK_CAPTURE(BM_MultiVarAggApplyFused, skew, GradientModel::kSkew);

// The step path with the sparsity monitor's nnz observation tap engaged: each
// variable's distinct-row count is the sum's size. Compare against
// BM_MultiVarAggApplyFused at equal args — the delta IS the observation overhead
// (docs/perf.md).
void BM_MultiVarAggApplyFusedObserved(benchmark::State& state, GradientModel which) {
  MultiVarAgg(state, which, true);
}
BENCHMARK_CAPTURE(BM_MultiVarAggApplyFusedObserved, synthetic, GradientModel::kSynthetic)
    ->Args({1'000, 6, 100'000})
    ->Args({10'000, 6, 100'000})
    ->Args({256, 64, 8'192})
    ->Args({64, 256, 2'048});
BENCHMARK_CAPTURE(BM_MultiVarAggApplyFusedObserved, lm, GradientModel::kLm);
BENCHMARK_CAPTURE(BM_MultiVarAggApplyFusedObserved, skew, GradientModel::kSkew);

// ---- PS engine step with/without the nnz observation hook ----------------------------
//
// The whole synchronization step of the PS engine (dense AllReduce-style aggregation
// into engine buffers + the slot-table sums and in-place updates, with local
// aggregation on 4 machines x 2 ranks) on real gradients, with and without a
// SparseAccessObserver attached, cycling through 16 gradient sets. The delta is the
// total cost of the sparsity monitor's per-step tap: one rank's distinct-row count per
// variable plus the virtual calls (docs/perf.md). `vocab50k` is a 50 000-row LM at
// batch 512 per rank; `lm` and `skew` are pxbench's models.

class CountingObserver : public SparseAccessObserver {
 public:
  void ObserveSparseStep(int variable, int64_t unique_rows, int contributions) override {
    total_ += unique_rows + variable + contributions;
  }
  int64_t total() const { return total_; }

 private:
  int64_t total_ = 0;
};

void PsApplyStepBench(benchmark::State& state, GradientModel which, bool observed) {
  const ModelGradients gradients = GradientsOf(which);
  PsNumericConfig config;
  config.local_aggregation = true;
  config.ranks_per_machine = 2;
  PsNumericEngine engine(gradients.graph, config);
  CountingObserver observer;
  if (observed) {
    engine.set_observer(&observer);
  }
  size_t next = 0;
  for (auto _ : state) {
    engine.ApplyStep(gradients.per_rank[next], 0.01f);
    benchmark::ClobberMemory();
    next = (next + 1) % gradients.per_rank.size();
  }
  benchmark::DoNotOptimize(observer.total());
  state.SetItemsProcessed(state.iterations());
  state.counters["lanes"] = GlobalSparsePool().num_threads();
}

void BM_PsApplyStep(benchmark::State& state, GradientModel which) {
  PsApplyStepBench(state, which, false);
}
BENCHMARK_CAPTURE(BM_PsApplyStep, vocab50k, GradientModel::kVocab50k);
BENCHMARK_CAPTURE(BM_PsApplyStep, lm, GradientModel::kLm);
BENCHMARK_CAPTURE(BM_PsApplyStep, skew, GradientModel::kSkew);

void BM_PsApplyStepObserved(benchmark::State& state, GradientModel which) {
  PsApplyStepBench(state, which, true);
}
BENCHMARK_CAPTURE(BM_PsApplyStepObserved, vocab50k, GradientModel::kVocab50k);
BENCHMARK_CAPTURE(BM_PsApplyStepObserved, lm, GradientModel::kLm);
BENCHMARK_CAPTURE(BM_PsApplyStepObserved, skew, GradientModel::kSkew);

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
  state.SetLabel(KernelIsaLabel());
}

void BM_ExecutorRunStep(benchmark::State& state) { RunStepBench(state, false); }
BENCHMARK(BM_ExecutorRunStep);

void BM_ExecutorRunStepScratch(benchmark::State& state) { RunStepBench(state, true); }
BENCHMARK(BM_ExecutorRunStepScratch);

// One replica's compute through RunStepInto with a persistent scratch and result, as
// GraphRunner drives it, on the initial values and one training shard.
template <typename Model>
void ReplicaStepBench(benchmark::State& state, Model& model) {
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
  state.SetLabel(KernelIsaLabel());
}

// pxbench's skew workload: EmbeddingSkewModel at batch 64.
void BM_ExecutorRunStepSkew(benchmark::State& state) {
  EmbeddingSkewModel::Options options;
  options.batch_per_rank = 64;
  EmbeddingSkewModel model(options);
  ReplicaStepBench(state, model);
}
BENCHMARK(BM_ExecutorRunStepSkew);

// pxbench's lm workload: WordLmModel with vocabulary 2000, embedding 32, hidden width 48
// and batch 32.
void BM_ExecutorRunStepLm(benchmark::State& state) {
  WordLmModel model({.vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
                     .batch_per_rank = 32, .seed = 9});
  ReplicaStepBench(state, model);
}
BENCHMARK(BM_ExecutorRunStepLm);

// ---- Runner step ----------------------------------------------------------------------

// The skew workload's cluster and sync costs (pxbench/pxbench.cc): 4 machines x 2 GPUs on
// 2 racks, per-variable partition and placement search.
RunnerBuilder SkewSessionBuilder(EmbeddingSkewModel& model) {
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
  return builder;
}

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
  state.SetLabel(KernelIsaLabel());
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
  RunnerBuilder builder = SkewSessionBuilder(model);
  RunnerStepBench(state, model, builder);
}
BENCHMARK_CAPTURE(BM_RunnerStep, lm, false);
BENCHMARK_CAPTURE(BM_RunnerStep, skew, true);

// ---- Session set-up -------------------------------------------------------------------

int64_t MinorFaults() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// One session set-up as pxbench times it: RunnerBuilder::Build plus the first
// GraphRunner::Step (sampling, analysis, the partition search or a planner answer,
// engine preparation and the first updates). Every iteration makes a fresh model and
// its feeds first and destroys the runner and the model after, outside the timed span,
// as pxbench's tenants do. `minor_faults` counts the process's minor page faults per
// set-up inside the span (getrusage), what the set-up's fresh buffers cost the kernel.
template <typename Model>
void SessionSetUpBench(benchmark::State& state,
                       const std::function<std::unique_ptr<Model>()>& make_model,
                       const std::function<RunnerBuilder(Model&)>& builder) {
  int64_t faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<Model> model = make_model();
    Rng rng(12);
    const std::vector<FeedMap> feeds = model->TrainShards(8, rng);
    state.ResumeTiming();
    const int64_t before = MinorFaults();
    auto built = builder(*model).Build();
    PX_CHECK(built.ok()) << built.status().ToString();
    benchmark::DoNotOptimize(built.value()->Step(feeds));
    faults += MinorFaults() - before;
    state.PauseTiming();
    built.value().reset();
    model.reset();
    state.ResumeTiming();
  }
  state.counters["minor_faults"] =
      benchmark::Counter(static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}

// pxbench's `lm` session, and the largest `skew` tenant family (hot_vocab 8192,
// wide_vocab 320) answered from a warm PlannerService: one set-up before the loop
// misses and searches, every timed one is a cache hit.
void BM_SessionSetUp(benchmark::State& state, bool skew_tenant) {
  if (!skew_tenant) {
    SessionSetUpBench<WordLmModel>(
        state,
        [] {
          return std::make_unique<WordLmModel>(WordLmModel::Options{
              .vocab_size = 2000, .embedding_dim = 32, .hidden_dim = 48,
              .batch_per_rank = 32, .seed = 13});
        },
        [](WordLmModel& model) {
          RunnerBuilder builder(model.graph(), model.loss());
          builder.WithResources(ResourceSpec::Homogeneous(4, 2)).WithLearningRate(0.5f);
          return builder;
        });
    return;
  }
  auto make_model = [] {
    EmbeddingSkewModel::Options options;
    options.hot_vocab = 2048 * 4;
    options.wide_vocab = 128 + 64 * 3;
    options.batch_per_rank = 64;
    options.seed = 13;
    return std::make_unique<EmbeddingSkewModel>(options);
  };
  auto service = std::make_shared<PlannerService>(PlannerServiceOptions{});
  auto builder = [&](EmbeddingSkewModel& model) {
    RunnerBuilder builder = SkewSessionBuilder(model);
    builder.WithPlanner(service);
    return builder;
  };
  {
    std::unique_ptr<EmbeddingSkewModel> model = make_model();
    Rng rng(12);
    auto warm = builder(*model).Build();
    PX_CHECK(warm.ok()) << warm.status().ToString();
    warm.value()->Step(model->TrainShards(8, rng));
  }
  SessionSetUpBench<EmbeddingSkewModel>(state, make_model, builder);
  PX_CHECK_EQ(service->stats().searches, 1) << "every timed set-up must be a cache hit";
}
BENCHMARK_CAPTURE(BM_SessionSetUp, lm, false);
BENCHMARK_CAPTURE(BM_SessionSetUp, skew_tenant_hit, true);

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
  std::vector<int64_t> scratch;
  std::vector<int64_t> selected;
  for (auto _ : state) {
    TopKSelectRows(rows, scores, k, selected, &scratch);
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
