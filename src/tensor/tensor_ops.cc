#include "src/tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace parallax {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  PX_CHECK(a.shape() == b.shape())
      << "shape mismatch: " << a.shape().ToString() << " vs " << b.shape().ToString();
}

}  // namespace

void AddInPlace(Tensor& out, const Tensor& in) {
  CheckSameShape(out, in);
  auto dst = out.mutable_floats();
  auto src = in.floats();
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] += src[i];
  }
}

void AxpyInPlace(Tensor& out, float alpha, const Tensor& in) {
  CheckSameShape(out, in);
  auto dst = out.mutable_floats();
  auto src = in.floats();
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] += alpha * src[i];
  }
}

void ScaleInPlace(Tensor& out, float factor) {
  for (float& v : out.mutable_floats()) {
    v *= factor;
  }
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a.Clone();
  AddInPlace(out, b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = a.Clone();
  AxpyInPlace(out, -1.0f, b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a.Clone();
  auto dst = out.mutable_floats();
  auto src = b.floats();
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] *= src[i];
  }
  return out;
}

Tensor Scale(const Tensor& a, float factor) {
  Tensor out = a.Clone();
  ScaleInPlace(out, factor);
  return out;
}

namespace {

// Prepares `out` as the destination of a dense kernel: reuses its buffer when it is a
// uniquely-owned float tensor of the right shape, otherwise swaps in fresh zeroed
// storage. `zero_fill` is for accumulating kernels; fully-overwriting kernels skip it.
float* PrepareDense(Tensor& out, const TensorShape& shape, bool zero_fill) {
  if (!out.is_float() || !(out.shape() == shape) || !out.UniquelyOwned()) {
    out = Tensor::Zeros(shape);
    return out.mutable_floats().data();
  }
  auto data = out.mutable_floats();
  if (zero_fill) {
    std::fill(data.begin(), data.end(), 0.0f);
  }
  return data.data();
}

// PrepareDense for a [rows, cols] target without constructing a TensorShape on the hot
// path — the steady-state reuse check compares dims directly, so a kernel whose output
// buffer is reusable performs zero allocations (the shape vector included). Every
// caller overwrites the whole target, so a reused buffer is not zero-filled.
float* PrepareDense2D(Tensor& out, int64_t rows, int64_t cols) {
  if (out.is_float() && out.UniquelyOwned() && out.shape().rank() == 2 &&
      out.shape().dim(0) == rows && out.shape().dim(1) == cols) {
    return out.mutable_floats().data();
  }
  out = Tensor::Zeros(TensorShape({rows, cols}));
  return out.mutable_floats().data();
}

// Same, for a 1-D [n] target.
float* PrepareDense1D(Tensor& out, int64_t n, bool zero_fill) {
  if (out.is_float() && out.UniquelyOwned() && out.shape().rank() == 1 &&
      out.shape().dim(0) == n) {
    auto data = out.mutable_floats();
    if (zero_fill) {
      std::fill(data.begin(), data.end(), 0.0f);
    }
    return data.data();
  }
  out = Tensor::Zeros(TensorShape({n}));
  return out.mutable_floats().data();
}

// Same, for `like` with dim 0 replaced by `rows` (the GatherRows/ConcatRows shape):
// like.WithDim0(rows) is only materialized on the cold (allocate) path.
float* PrepareDenseRows(Tensor& out, const TensorShape& like, int64_t rows, bool zero_fill) {
  const std::vector<int64_t>& want = like.dims();
  const std::vector<int64_t>& have = out.shape().dims();
  bool match = out.is_float() && out.UniquelyOwned() && have.size() == want.size() &&
               !have.empty() && have[0] == rows;
  for (size_t d = 1; match && d < want.size(); ++d) {
    match = have[d] == want[d];
  }
  if (match) {
    auto data = out.mutable_floats();
    if (zero_fill) {
      std::fill(data.begin(), data.end(), 0.0f);
    }
    return data.data();
  }
  out = Tensor::Zeros(like.WithDim0(rows));
  return out.mutable_floats().data();
}

// ---- Register-strip matmul core ----
//
// Every matmul kernel computes each output element as the seed's loops did: start at
// +0.0f and add a(i, p) * b(p, j) in ascending p, one rounded multiply then one rounded
// add per term (optionally skipping terms whose a(i, p) compares equal to zero). The
// core keeps that per-element sequence and only changes what runs side by side: a strip
// of up to kStripVecs vectors of one output row stays in registers for the whole p
// loop, and the element-wise vector multiply and add are the same IEEE operations as
// their scalar forms. So the results are bit-identical to the scalar loops, while B is
// read once per strip and C is written once.

// The core is one template on the float vector type V (GCC/Clang vector extension),
// compiled twice: with four lanes at the build's baseline ISA (one SSE register on
// x86-64, scalar code where the target has no vector unit), and with eight lanes inside
// an AVX2 entry point that x86-64 CPUs with AVX2 run instead (see ActiveMatMulIsa).
// Everything the entry points call is always_inline, so each copy is compiled for its
// entry point's ISA.
using Vec4 = float __attribute__((vector_size(16)));
using Vec8 = float __attribute__((vector_size(32)));

template <typename V>
constexpr int64_t kLanes = sizeof(V) / sizeof(float);
// Widest strip: 8 accumulators leave registers for B's vectors (x86-64 has 16 of
// either width).
constexpr int kStripVecs = 8;

// c[0, kVecs * lanes) = sum over p in [0, k) of a[p * a_step] * b[p * ldb, +kVecs * lanes).
// Vectors move through memcpy, so no function passes one by value.
template <typename V, int kVecs, bool kSkipZeros>
[[gnu::always_inline]] inline void Strip(float* c, const float* a, int64_t a_step,
                                         const float* b, int64_t ldb, int64_t k) {
  V acc[kVecs] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float ap = a[p * a_step];
    if (kSkipZeros && ap == 0.0f) {
      continue;
    }
    const float* bp = b + p * ldb;
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      V bv;
      std::memcpy(&bv, bp + v * kLanes<V>, sizeof(bv));
      const V product = ap * bv;
      acc[v] += product;
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) {
    std::memcpy(c + v * kLanes<V>, &acc[v], sizeof(V));
  }
}

// Strip<V, vecs> for a run-time vecs in [1, kMaxVecs]. A remainder of r vectors runs as
// one r-wide strip, not as a 4-, 2- and 1-wide one: each vector is one add chain, bound
// by the add latency, so every chain it keeps in flight counts (lm's 48 columns are one
// 6-vector strip on AVX2).
template <typename V, int kMaxVecs, bool kSkipZeros>
[[gnu::always_inline]] inline void StripOf(int64_t vecs, float* c, const float* a,
                                           int64_t a_step, const float* b, int64_t ldb,
                                           int64_t k) {
  if (vecs == kMaxVecs) {
    Strip<V, kMaxVecs, kSkipZeros>(c, a, a_step, b, ldb, k);
  } else if constexpr (kMaxVecs > 1) {
    StripOf<V, kMaxVecs - 1, kSkipZeros>(vecs, c, a, a_step, b, ldb, k);
  }
}

// The same sequence for one column (the strip remainder narrower than a vector).
template <bool kSkipZeros>
[[gnu::always_inline]] inline float Column(const float* a, int64_t a_step, const float* b,
                                           int64_t ldb, int64_t k) {
  float acc = 0.0f;
  for (int64_t p = 0; p < k; ++p) {
    const float ap = a[p * a_step];
    if (kSkipZeros && ap == 0.0f) {
      continue;
    }
    acc += ap * b[p * ldb];
  }
  return acc;
}

// C[m, n] = A x B, where A's element (i, p) is a[i * a_row_step + p * a_col_step] and
// B is row-major [k, n]. Writes every element of C.
template <typename V, bool kSkipZeros>
[[gnu::always_inline]] inline void StripMatMul(float* c, const float* a, int64_t a_row_step,
                                               int64_t a_col_step, const float* b, int64_t m,
                                               int64_t k, int64_t n) {
  if (k == 0) {
    // Empty sums are +0; returning here also keeps offsets off empty (null) operands.
    std::fill_n(c, m * n, 0.0f);
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_row_step;
    float* ci = c + i * n;
    int64_t j = 0;
    while (j + kLanes<V> <= n) {
      const int64_t vecs = std::min<int64_t>((n - j) / kLanes<V>, kStripVecs);
      StripOf<V, kStripVecs, kSkipZeros>(vecs, ci + j, ai, a_col_step, b + j, n, k);
      j += vecs * kLanes<V>;
    }
    for (; j < n; ++j) {
      ci[j] = Column<kSkipZeros>(ai, a_col_step, b + j, n, k);
    }
  }
}

#if defined(__x86_64__)
// The 8-lane instantiation: AVX2 and nothing beyond it. C++ compiles with
// -ffp-contract=fast by default, so on a target with FMA (AVX-512F, "fma",
// -march=native) GCC fuses `acc += ap * bv` into one multiply-add with a single
// rounding, and results change. AVX2 has no FMA instruction.
template <bool kSkipZeros>
[[gnu::target("avx2")]] void StripMatMulAvx2(float* c, const float* a, int64_t a_row_step,
                                             int64_t a_col_step, const float* b, int64_t m,
                                             int64_t k, int64_t n) {
  StripMatMul<Vec8, kSkipZeros>(c, a, a_row_step, a_col_step, b, m, k, n);
}
#endif

// StripMatMul on instantiation `isa`; the 4-lane one is compiled right here.
template <bool kSkipZeros>
void RunStripMatMul(internal::MatMulIsa isa, float* c, const float* a, int64_t a_row_step,
                    int64_t a_col_step, const float* b, int64_t m, int64_t k, int64_t n) {
  PX_CHECK(internal::MatMulIsaSupported(isa))
      << internal::MatMulIsaName(isa) << " is not supported by this CPU";
#if defined(__x86_64__)
  if (isa == internal::MatMulIsa::kAvx2) {
    StripMatMulAvx2<kSkipZeros>(c, a, a_row_step, a_col_step, b, m, k, n);
    return;
  }
#endif
  StripMatMul<Vec4, kSkipZeros>(c, a, a_row_step, a_col_step, b, m, k, n);
}

// Per-thread packing buffer for the transposed operand of MatMulTransposeB. It only
// grows, so once a thread has seen its largest operand a kernel call allocates nothing.
float* PackBuffer(size_t floats) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < floats) {
    buffer.resize(floats);
  }
  return buffer.data();
}

}  // namespace

namespace internal {

bool MatMulIsaSupported(MatMulIsa isa) {
#if defined(__x86_64__)
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return isa == MatMulIsa::kVec4 || avx2;
#else
  return isa == MatMulIsa::kVec4;
#endif
}

MatMulIsa ActiveMatMulIsa() {
  return MatMulIsaSupported(MatMulIsa::kAvx2) ? MatMulIsa::kAvx2 : MatMulIsa::kVec4;
}

const char* MatMulIsaName(MatMulIsa isa) {
  return isa == MatMulIsa::kAvx2 ? "avx2" : "vec4";
}

void MatMulInto(MatMulIsa isa, Tensor& out, const Tensor& a, const Tensor& b) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  PX_CHECK_EQ(b.shape().rank(), 2);
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  int64_t n = b.shape().dim(1);
  PX_CHECK_EQ(k, b.shape().dim(0));
  float* cv = PrepareDense2D(out, m, n);
  RunStripMatMul</*kSkipZeros=*/true>(isa, cv, a.floats().data(), k, 1, b.floats().data(), m,
                                      k, n);
}

void MatMulTransposeAInto(MatMulIsa isa, Tensor& out, const Tensor& a, const Tensor& b) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  PX_CHECK_EQ(b.shape().rank(), 2);
  int64_t k = a.shape().dim(0);
  int64_t m = a.shape().dim(1);
  int64_t n = b.shape().dim(1);
  PX_CHECK_EQ(k, b.shape().dim(0));
  float* cv = PrepareDense2D(out, m, n);
  // A^T's row i is A's column i: one strided scalar read per p.
  RunStripMatMul</*kSkipZeros=*/true>(isa, cv, a.floats().data(), 1, m, b.floats().data(), m,
                                      k, n);
}

void MatMulTransposeBInto(MatMulIsa isa, Tensor& out, const Tensor& a, const Tensor& b) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  PX_CHECK_EQ(b.shape().rank(), 2);
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  int64_t n = b.shape().dim(0);
  PX_CHECK_EQ(k, b.shape().dim(1));
  float* cv = PrepareDense2D(out, m, n);
  // Pack B^T as row-major [k, n] so a strip of output columns reads contiguous floats.
  float* bt = PackBuffer(static_cast<size_t>(k * n));
  const float* bv = b.floats().data();
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t p = 0; p < k; ++p) {
      bt[p * n + j] = bv[j * k + p];
    }
  }
  // The seed's dot product added every term, so no zero skipping here.
  RunStripMatMul</*kSkipZeros=*/false>(isa, cv, a.floats().data(), k, 1, bt, m, k, n);
}

}  // namespace internal

void MatMulInto(Tensor& out, const Tensor& a, const Tensor& b) {
  internal::MatMulInto(internal::ActiveMatMulIsa(), out, a, b);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulInto(c, a, b);
  return c;
}

void MatMulTransposeAInto(Tensor& out, const Tensor& a, const Tensor& b) {
  internal::MatMulTransposeAInto(internal::ActiveMatMulIsa(), out, a, b);
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulTransposeAInto(c, a, b);
  return c;
}

void MatMulTransposeBInto(Tensor& out, const Tensor& a, const Tensor& b) {
  internal::MatMulTransposeBInto(internal::ActiveMatMulIsa(), out, a, b);
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulTransposeBInto(c, a, b);
  return c;
}

Tensor Transpose2D(const Tensor& a) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  int64_t m = a.shape().dim(0);
  int64_t n = a.shape().dim(1);
  Tensor out = Tensor::Zeros(TensorShape({n, m}));
  auto src = a.floats();
  auto dst = out.mutable_floats();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      dst[static_cast<size_t>(j * m + i)] = src[static_cast<size_t>(i * n + j)];
    }
  }
  return out;
}

void TanhInto(Tensor& out, const Tensor& a) {
  float* dst = PrepareDense(out, a.shape(), /*zero_fill=*/false);
  auto src = a.floats();
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::tanh(src[i]);
  }
}

Tensor Tanh(const Tensor& a) {
  Tensor out;
  TanhInto(out, a);
  return out;
}

void TanhGradInto(Tensor& out, const Tensor& output, const Tensor& grad) {
  CheckSameShape(output, grad);
  float* dst = PrepareDense(out, grad.shape(), /*zero_fill=*/false);
  auto g = grad.floats();
  auto y = output.floats();
  for (size_t i = 0; i < g.size(); ++i) {
    dst[i] = g[i] * (1.0f - y[i] * y[i]);
  }
}

Tensor TanhGrad(const Tensor& output, const Tensor& grad) {
  Tensor out;
  TanhGradInto(out, output, grad);
  return out;
}

void ReluInto(Tensor& out, const Tensor& a) {
  float* dst = PrepareDense(out, a.shape(), /*zero_fill=*/false);
  auto src = a.floats();
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::max(src[i], 0.0f);
  }
}

Tensor Relu(const Tensor& a) {
  Tensor out;
  ReluInto(out, a);
  return out;
}

void ReluGradInto(Tensor& out, const Tensor& input, const Tensor& grad) {
  CheckSameShape(input, grad);
  float* dst = PrepareDense(out, grad.shape(), /*zero_fill=*/false);
  auto g = grad.floats();
  auto x = input.floats();
  for (size_t i = 0; i < g.size(); ++i) {
    dst[i] = x[i] <= 0.0f ? 0.0f : g[i];
  }
}

Tensor ReluGrad(const Tensor& input, const Tensor& grad) {
  Tensor out;
  ReluGradInto(out, input, grad);
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Tensor out = a.Clone();
  for (float& v : out.mutable_floats()) {
    v = 1.0f / (1.0f + std::exp(-v));
  }
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  Tensor out;
  SoftmaxRowsInto(out, logits);
  return out;
}

void SoftmaxRowsInto(Tensor& out, const Tensor& logits) {
  PX_CHECK_EQ(logits.shape().rank(), 2);
  int64_t rows = logits.shape().dim(0);
  int64_t cols = logits.shape().dim(1);
  float* dst = PrepareDense(out, logits.shape(), /*zero_fill=*/false);
  auto src = logits.floats();
  std::copy(src.begin(), src.end(), dst);
  std::span<float> data(dst, static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    float* row = &data[static_cast<size_t>(r * cols)];
    float max_val = row[0];
    for (int64_t c = 1; c < cols; ++c) {
      max_val = std::max(max_val, row[c]);
    }
    float sum = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_val);
      sum += row[c];
    }
    for (int64_t c = 0; c < cols; ++c) {
      row[c] /= sum;
    }
  }
}

float SoftmaxCrossEntropy(const Tensor& logits, const Tensor& labels, Tensor* grad_logits) {
  Tensor probs;
  return SoftmaxCrossEntropyInto(probs, logits, labels, grad_logits);
}

float SoftmaxCrossEntropyInto(Tensor& probs, const Tensor& logits, const Tensor& labels,
                              Tensor* grad_logits) {
  PX_CHECK_EQ(logits.shape().rank(), 2);
  int64_t rows = logits.shape().dim(0);
  int64_t cols = logits.shape().dim(1);
  auto label_ids = labels.ints();
  PX_CHECK_EQ(static_cast<int64_t>(label_ids.size()), rows);
  SoftmaxRowsInto(probs, logits);
  auto p = probs.floats();
  double loss = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    int64_t label = label_ids[static_cast<size_t>(r)];
    PX_CHECK_GE(label, 0);
    PX_CHECK_LT(label, cols);
    float prob = std::max(p[static_cast<size_t>(r * cols + label)], 1e-12f);
    loss -= std::log(prob);
  }
  loss /= static_cast<double>(rows);
  if (grad_logits != nullptr) {
    SoftmaxCrossEntropyGradInto(*grad_logits, probs, labels);
  }
  return static_cast<float>(loss);
}

void SoftmaxCrossEntropyGradInto(Tensor& grad_logits, const Tensor& probs,
                                 const Tensor& labels) {
  PX_CHECK_EQ(probs.shape().rank(), 2);
  int64_t rows = probs.shape().dim(0);
  int64_t cols = probs.shape().dim(1);
  auto label_ids = labels.ints();
  PX_CHECK_EQ(static_cast<int64_t>(label_ids.size()), rows);
  CopyInto(grad_logits, probs);
  auto g = grad_logits.mutable_floats();
  float inv_rows = 1.0f / static_cast<float>(rows);
  for (int64_t r = 0; r < rows; ++r) {
    int64_t label = label_ids[static_cast<size_t>(r)];
    PX_CHECK_GE(label, 0);
    PX_CHECK_LT(label, cols);
    g[static_cast<size_t>(r * cols + label)] -= 1.0f;
  }
  for (float& v : g) {
    v *= inv_rows;
  }
}

void GatherRowsInto(Tensor& out, const Tensor& params, std::span<const int64_t> indices) {
  PX_CHECK_GE(params.shape().rank(), 1);
  int64_t row = params.shape().row_elements();
  float* dst = PrepareDenseRows(out, params.shape(), static_cast<int64_t>(indices.size()),
                                /*zero_fill=*/false);
  auto src = params.floats();
  for (size_t i = 0; i < indices.size(); ++i) {
    int64_t index = indices[i];
    PX_CHECK_GE(index, 0);
    PX_CHECK_LT(index, params.shape().dim(0));
    std::copy_n(src.begin() + static_cast<ptrdiff_t>(index * row),
                row, dst + static_cast<int64_t>(i) * row);
  }
}

Tensor GatherRows(const Tensor& params, std::span<const int64_t> indices) {
  Tensor out;
  GatherRowsInto(out, params, indices);
  return out;
}

void ScatterAddInPlace(Tensor& params, const IndexedSlices& slices) {
  PX_CHECK(params.shape() == slices.dense_shape())
      << params.shape().ToString() << " vs " << slices.dense_shape().ToString();
  int64_t row = params.shape().row_elements();
  auto dst = params.mutable_floats();
  auto src = slices.values().floats();
  for (int64_t i = 0; i < slices.nnz_rows(); ++i) {
    int64_t base = slices.indices()[static_cast<size_t>(i)] * row;
    for (int64_t j = 0; j < row; ++j) {
      dst[static_cast<size_t>(base + j)] += src[static_cast<size_t>(i * row + j)];
    }
  }
}

void ScatterSgdUpdate(Tensor& params, const IndexedSlices& grad, float learning_rate) {
  PX_CHECK(params.shape() == grad.dense_shape());
  const int64_t row = params.shape().row_elements();
  auto dst = params.mutable_floats();
  auto src = grad.values().floats();
  const std::vector<int64_t>& indices = grad.indices();
  for (int64_t i = 0; i < grad.nnz_rows(); ++i) {
    float* d = dst.data() + indices[static_cast<size_t>(i)] * row;
    const float* s = src.data() + i * row;
    for (int64_t j = 0; j < row; ++j) {
      d[j] -= learning_rate * s[j];
    }
  }
}

Tensor SliceRows(const Tensor& input, int64_t row_begin, int64_t row_end) {
  PX_CHECK_GE(input.shape().rank(), 1);
  PX_CHECK_GE(row_begin, 0);
  PX_CHECK_LE(row_begin, row_end);
  PX_CHECK_LE(row_end, input.shape().dim(0));
  int64_t row = input.shape().row_elements();
  if (input.is_int()) {
    Tensor out(DataType::kInt64, input.shape().WithDim0(row_end - row_begin));
    auto src = input.ints();
    auto dst = out.mutable_ints();
    std::copy_n(src.begin() + static_cast<ptrdiff_t>(row_begin * row),
                (row_end - row_begin) * row, dst.begin());
    return out;
  }
  Tensor out = Tensor::Zeros(input.shape().WithDim0(row_end - row_begin));
  auto src = input.floats();
  auto dst = out.mutable_floats();
  std::copy_n(src.begin() + static_cast<ptrdiff_t>(row_begin * row), (row_end - row_begin) * row,
              dst.begin());
  return out;
}

void SliceColsInto(Tensor& out, const Tensor& input, int64_t col_begin, int64_t col_end) {
  PX_CHECK_EQ(input.shape().rank(), 2);
  PX_CHECK_GE(col_begin, 0);
  PX_CHECK_LE(col_begin, col_end);
  PX_CHECK_LE(col_end, input.shape().dim(1));
  int64_t rows = input.shape().dim(0);
  int64_t cols = input.shape().dim(1);
  int64_t out_cols = col_end - col_begin;
  float* dst = PrepareDense2D(out, rows, out_cols);
  auto src = input.floats();
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(src.begin() + static_cast<ptrdiff_t>(r * cols + col_begin), out_cols,
                dst + r * out_cols);
  }
}

Tensor SliceCols(const Tensor& input, int64_t col_begin, int64_t col_end) {
  Tensor out;
  SliceColsInto(out, input, col_begin, col_end);
  return out;
}

void ColumnSumInto(Tensor& out, const Tensor& input) {
  PX_CHECK_EQ(input.shape().rank(), 2);
  int64_t rows = input.shape().dim(0);
  int64_t cols = input.shape().dim(1);
  float* dst = PrepareDense1D(out, cols, /*zero_fill=*/true);
  auto src = input.floats();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      dst[c] += src[static_cast<size_t>(r * cols + c)];
    }
  }
}

Tensor ColumnSum(const Tensor& input) {
  Tensor out;
  ColumnSumInto(out, input);
  return out;
}

void CopyInto(Tensor& out, const Tensor& in) {
  PX_CHECK(in.is_float());
  float* dst = PrepareDense(out, in.shape(), /*zero_fill=*/false);
  auto src = in.floats();
  std::copy(src.begin(), src.end(), dst);
}

void ConcatRowsInto(Tensor& out, std::span<const Tensor* const> parts) {
  PX_CHECK(!parts.empty());
  int64_t total_rows = 0;
  const TensorShape& first = parts.front()->shape();
  for (const Tensor* part : parts) {
    PX_CHECK(part != nullptr && part->is_float());
    PX_CHECK_GE(part->shape().rank(), 1);
    PX_CHECK_EQ(part->shape().row_elements(), first.row_elements());
    total_rows += part->shape().dim(0);
  }
  float* dst = PrepareDenseRows(out, first, total_rows, /*zero_fill=*/false);
  for (const Tensor* part : parts) {
    auto src = part->floats();
    std::copy(src.begin(), src.end(), dst);
    dst += src.size();
  }
}

void ConcatColsPairInto(Tensor& out, const Tensor& a, const Tensor& b) {
  PX_CHECK_EQ(a.shape().rank(), 2);
  PX_CHECK_EQ(b.shape().rank(), 2);
  PX_CHECK_EQ(a.shape().dim(0), b.shape().dim(0));
  int64_t rows = a.shape().dim(0);
  int64_t pa = a.shape().dim(1);
  int64_t pb = b.shape().dim(1);
  float* dst = PrepareDense2D(out, rows, pa + pb);
  auto av = a.floats();
  auto bv = b.floats();
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(av.begin() + static_cast<ptrdiff_t>(r * pa), pa, dst + r * (pa + pb));
    std::copy_n(bv.begin() + static_cast<ptrdiff_t>(r * pb), pb,
                dst + r * (pa + pb) + pa);
  }
}

Tensor ConcatColsPair(const Tensor& a, const Tensor& b) {
  Tensor out;
  ConcatColsPairInto(out, a, b);
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& pieces) {
  PX_CHECK(!pieces.empty());
  int64_t row = pieces.front().shape().row_elements();
  int64_t total = 0;
  for (const Tensor& piece : pieces) {
    PX_CHECK_EQ(piece.shape().row_elements(), row);
    total += piece.shape().dim(0);
  }
  Tensor out = Tensor::Zeros(pieces.front().shape().WithDim0(total));
  auto dst = out.mutable_floats();
  int64_t offset = 0;
  for (const Tensor& piece : pieces) {
    auto src = piece.floats();
    std::copy(src.begin(), src.end(), dst.begin() + static_cast<ptrdiff_t>(offset * row));
    offset += piece.shape().dim(0);
  }
  return out;
}

Tensor RandomNormal(TensorShape shape, Rng& rng, float stddev) {
  Tensor out = Tensor::Zeros(std::move(shape));
  for (float& v : out.mutable_floats()) {
    v = static_cast<float>(rng.NextGaussian()) * stddev;
  }
  return out;
}

Tensor GlorotUniform(TensorShape shape, Rng& rng) {
  PX_CHECK_EQ(shape.rank(), 2);
  float limit = std::sqrt(6.0f / static_cast<float>(shape.dim(0) + shape.dim(1)));
  Tensor out = Tensor::Zeros(std::move(shape));
  for (float& v : out.mutable_floats()) {
    v = static_cast<float>(rng.NextUniform(-limit, limit));
  }
  return out;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto av = a.floats();
  auto bv = b.floats();
  float max_diff = 0.0f;
  for (size_t i = 0; i < av.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(av[i] - bv[i]));
  }
  return max_diff;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  return a.shape() == b.shape() && MaxAbsDiff(a, b) <= atol;
}

}  // namespace parallax
