// Dense and sparse compute kernels. These are the numeric workhorses behind the graph
// executor, the collectives (element-wise reduction), and the sparse gather / scatter
// updates. (Sparse coalescing and summation live in indexed_slices.h: RowSlotSum.)
//
// All kernels are deterministic: reductions run in a fixed order so that distributed
// engines can be compared bit-for-bit against the single-device reference.
#ifndef PARALLAX_SRC_TENSOR_TENSOR_OPS_H_
#define PARALLAX_SRC_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/rng.h"
#include "src/tensor/indexed_slices.h"
#include "src/tensor/tensor.h"

namespace parallax {

// ---- Element-wise dense kernels ----

// out += in (shapes must match).
void AddInPlace(Tensor& out, const Tensor& in);
// out += alpha * in.
void AxpyInPlace(Tensor& out, float alpha, const Tensor& in);
// out *= factor.
void ScaleInPlace(Tensor& out, float factor);
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);  // Hadamard product
Tensor Scale(const Tensor& a, float factor);

// ---- Linear algebra ----

// C = A x B with A: [m, k], B: [k, n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// C = A^T x B with A: [k, m], B: [k, n] -> [m, n]. (Backward of MatMul wrt rhs.)
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);
// C = A x B^T with A: [m, k], B: [n, k] -> [m, n]. (Backward of MatMul wrt lhs.)
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);
Tensor Transpose2D(const Tensor& a);

// ---- Nonlinearities ----

// Tanh is the library's own: fdlibm's float tanhf algorithm, ported into
// tensor_ops.cc (internal::ScalarTanh) and run up to sixteen lanes at a time, so no value
// comes from the host's libm. It equals glibc 2.36's tanhf on every float. On a host
// with another libm (musl, a correctly rounded glibc) values changed once, when Tanh
// stopped calling that libm's tanhf, and from then on no longer depend on the host.
Tensor Tanh(const Tensor& a);
Tensor TanhGrad(const Tensor& output, const Tensor& grad);  // grad * (1 - output^2)
Tensor Relu(const Tensor& a);
Tensor ReluGrad(const Tensor& input, const Tensor& grad);

// Row-wise softmax over the last dimension of a 2-D tensor (numerically stabilized).
// Its exp is the library's own too: glibc 2.36's float expf algorithm, ported into
// tensor_ops.cc (internal::ScalarExp) and run up to eight rows at a time, so results no
// longer depend on the host. The port equals the expf that x86-64 glibc 2.36 runs on
// CPUs with FMA on every float. glibc's other x86-64 variant, for CPUs without FMA,
// rounds differently on a few floats (0x4202422f and 0xc27c65d9 among them): a host
// running it computed another softmax from those logits while the library called libm.
Tensor SoftmaxRows(const Tensor& logits);
// Mean cross-entropy loss over rows given int64 labels [rows]; also returns the gradient
// with respect to the logits (softmax - onehot) / rows via the out parameter.
float SoftmaxCrossEntropy(const Tensor& logits, const Tensor& labels, Tensor* grad_logits);

// ---- Sparse access kernels ----

// Rows of params selected by indices: result shape [indices.size(), row_elements...].
Tensor GatherRows(const Tensor& params, std::span<const int64_t> indices);
// params[indices[i], :] += slices row i (duplicates accumulate).
void ScatterAddInPlace(Tensor& params, const IndexedSlices& slices);
// params[indices[i], :] -= lr * slices row i — the sparse SGD update, one sequential
// pass in input order (duplicates apply one after another).
void ScatterSgdUpdate(Tensor& params, const IndexedSlices& grad, float learning_rate);
// One row of an SGD update, `width` floats: dst -= lr * (grad * scale) when `average`
// (the float sequence of a scale pass followed by the update), dst -= lr * grad
// otherwise.
inline void SgdUpdateRow(float* dst, const float* grad, int64_t width, float learning_rate,
                         bool average, float scale) {
  if (average) {
    for (int64_t j = 0; j < width; ++j) {
      dst[j] -= learning_rate * (grad[j] * scale);
    }
  } else {
    for (int64_t j = 0; j < width; ++j) {
      dst[j] -= learning_rate * grad[j];
    }
  }
}
// Contiguous row slice [row_begin, row_end) of a rank>=1 tensor.
Tensor SliceRows(const Tensor& input, int64_t row_begin, int64_t row_end);
// Contiguous column slice [col_begin, col_end) of a 2-D tensor.
Tensor SliceCols(const Tensor& input, int64_t col_begin, int64_t col_end);
// Sum over rows of a 2-D tensor -> [cols]. (Backward of broadcasting BiasAdd.)
Tensor ColumnSum(const Tensor& input);
// Concatenates two 2-D tensors along columns: [m,p] ++ [m,q] -> [m,p+q].
Tensor ConcatColsPair(const Tensor& a, const Tensor& b);
// Inverse of row partitioning: concatenates pieces along dim 0 (the "stitch" whose
// overhead grows with the partition count; paper section 3.2).
Tensor ConcatRows(const std::vector<Tensor>& pieces);

// ---- Destination-passing variants (the executor's gradient buffer plan) ----
//
// Each XInto computes exactly the values of X but writes them into `out`, reusing its
// buffer when `out` already is a uniquely-owned float tensor of the result shape;
// otherwise `out` is replaced with fresh storage. Threading the same `out` tensors
// through a training loop makes the backward pass reuse one set of gradient buffers
// across steps. Results are bit-identical to the allocating variants.
//
// Precondition: `out` must not alias any input (an in-place reuse overwrites the buffer
// before the inputs are fully read). The executor's slot discipline guarantees this —
// a node is never its own input, and each scratch slot is uniquely owned.

void MatMulInto(Tensor& out, const Tensor& a, const Tensor& b);
void MatMulTransposeAInto(Tensor& out, const Tensor& a, const Tensor& b);
void MatMulTransposeBInto(Tensor& out, const Tensor& a, const Tensor& b);
void TanhInto(Tensor& out, const Tensor& a);
void TanhGradInto(Tensor& out, const Tensor& output, const Tensor& grad);
void ReluInto(Tensor& out, const Tensor& a);
void ReluGradInto(Tensor& out, const Tensor& input, const Tensor& grad);
void ColumnSumInto(Tensor& out, const Tensor& input);
void SliceColsInto(Tensor& out, const Tensor& input, int64_t col_begin, int64_t col_end);
void ConcatColsPairInto(Tensor& out, const Tensor& a, const Tensor& b);
void GatherRowsInto(Tensor& out, const Tensor& params, std::span<const int64_t> indices);
// out <- in (element copy; the buffer-reusing counterpart of in.Clone()).
void CopyInto(Tensor& out, const Tensor& in);
// out <- rows of all parts concatenated (parts share trailing dims; out gets
// [sum(rows), trailing...]). The buffer-reusing counterpart of IndexedSlices::Concat's
// value assembly.
void ConcatRowsInto(Tensor& out, std::span<const Tensor* const> parts);
// out <- row-wise softmax of logits.
void SoftmaxRowsInto(Tensor& out, const Tensor& logits);
// SoftmaxCrossEntropy with every intermediate in caller-owned buffers: the row
// probabilities land in `probs` and the gradient (when requested) in *grad_logits,
// both via buffer reuse. Bit-identical to SoftmaxCrossEntropy, which wraps this.
float SoftmaxCrossEntropyInto(Tensor& probs, const Tensor& logits, const Tensor& labels,
                              Tensor* grad_logits);
// The gradient half of SoftmaxCrossEntropyInto from already computed row
// probabilities: grad_logits <- (probs - onehot(labels)) / rows. Lets a backward pass
// reuse the forward pass's softmax instead of recomputing it.
void SoftmaxCrossEntropyGradInto(Tensor& grad_logits, const Tensor& probs,
                                 const Tensor& labels);

namespace internal {

// The kernel ISAs: which instantiations of the vector cores the three matmul kernels,
// the transposes, TanhInto, SoftmaxRowsInto and RandomNormal run. Every instantiation
// gives each output element the same sequence of rounded operations, never a fused
// multiply-add, so all agree bit for bit; only the number of elements computed side by
// side differs. (RandomNormal's core rounds differently from libm; its guard, below,
// makes every value equal anyway.)
enum class KernelIsa {
  kVec4,    // 4-lane float (2-lane double) vectors at the build's baseline ISA (SSE2 on
            // x86-64); runs anywhere
  kAvx2,    // 8-lane float (4-lane double) AVX2 vectors; x86-64 CPUs with AVX2 only
  kAvx512,  // 16-lane AVX-512F matmul strips and tanh cores (GCC 12 compiles the 16-lane
            // tanh template's vector tests one lane at a time, so these cores test on
            // mask registers), the exp and the Gaussian core on 8 double lanes, the AVX2
            // transposes; x86-64 CPUs with AVX2 and AVX-512F only
};
// Whether this CPU can run `isa`.
bool KernelIsaSupported(KernelIsa isa);
// The kernel ISA the public kernels run, chosen once per process: the widest one this
// CPU supports.
KernelIsa ActiveKernelIsa();
// "vec4", "avx2" or "avx512".
const char* KernelIsaName(KernelIsa isa);
// MatMulInto, MatMulTransposeAInto and MatMulTransposeBInto on a chosen kernel ISA, so
// tests can check each one, not only the one this CPU dispatches to. `isa` must be
// supported.
void MatMulInto(KernelIsa isa, Tensor& out, const Tensor& a, const Tensor& b);
void MatMulTransposeAInto(KernelIsa isa, Tensor& out, const Tensor& a, const Tensor& b);
void MatMulTransposeBInto(KernelIsa isa, Tensor& out, const Tensor& a, const Tensor& b);
// The library's tanh of one float, fdlibm's tanhf ported operation for operation: the
// reference TanhInto's vector cores match bit for bit on every finite input, and its
// fallback for strips with an infinite or NaN lane and for the tail.
float ScalarTanh(float x);
// TanhInto on a chosen kernel ISA; `isa` must be supported.
void TanhInto(KernelIsa isa, Tensor& out, const Tensor& a);
// The library's exp of one float, glibc 2.36's expf ported without FMA; it equals the
// variant glibc runs on CPUs with FMA on every float. The exp of SoftmaxRowsInto's
// vector lanes and of its rows past the last whole group of lanes.
float ScalarExp(float x);
// out = ScalarExp of every element, through the softmax's lane-wise exp core (the tail
// on the port). For tests; `isa` must be supported.
void ExpInto(KernelIsa isa, Tensor& out, const Tensor& a);
// SoftmaxRowsInto on a chosen kernel ISA; `isa` must be supported.
void SoftmaxRowsInto(KernelIsa isa, Tensor& out, const Tensor& logits);
// RandomNormalInto on a chosen kernel ISA; `isa` must be supported.
void RandomNormalInto(KernelIsa isa, std::span<float> out, Rng& rng, float stddev);
// RandomNormal's guard: a value's vector lane keeps its own double p rounded to float
// only where p - kGaussianGuard |p| and p + kGaussianGuard |p| round to the same float.
// The vector core is within kGaussianGuard / 2^8 of the exact Box–Muller value,
// relative to it (tensor_ops.cc gives the bound).
inline constexpr double kGaussianGuard = 0x1p-40;
// RandomNormal's kernel on given uniform pairs, for tests and benches: out[i] =
// float(BoxMuller(u1[i], u2[i])) * stddev, the value RandomNormal makes of the two
// uniforms it draws for element i. Writes the vector core's double of each pair to
// core[i] unless `core` is empty, and returns how many pairs the guard sent to
// BoxMuller. Every uniform must lie in [0, 1), as Rng::NextDouble's do; `isa` must be
// supported.
int64_t GaussiansInto(KernelIsa isa, std::span<const double> u1, std::span<const double> u2,
                      float stddev, std::span<float> out, std::span<double> core = {});

}  // namespace internal

// ---- Initializers ----

// Gaussian values of standard deviation `stddev`, one per element, equal bit for bit to
// float(rng.NextGaussian()) * stddev in element order; the Rng ends where those calls
// leave it. They are computed another way: the uniforms of 256 elements are drawn at a
// time (u1, then u2, per element), their Box–Muller doubles computed on double vector
// lanes with the library's own log and cos, and a value recomputed with BoxMuller
// (rng.h), on libm, only where its lane's double lies too close to the midpoint between
// two floats to be sure that libm's rounds the same way (internal::kGaussianGuard):
// about 2.2 in 10^5 values.
void RandomNormalInto(std::span<float> out, Rng& rng, float stddev = 1.0f);
Tensor RandomNormal(TensorShape shape, Rng& rng, float stddev = 1.0f);
// Glorot/Xavier uniform for a [fan_in, fan_out] matrix.
Tensor GlorotUniform(TensorShape shape, Rng& rng);

// ---- Comparisons ----

// Max |a - b| over all elements; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace parallax

#endif  // PARALLAX_SRC_TENSOR_TENSOR_OPS_H_
