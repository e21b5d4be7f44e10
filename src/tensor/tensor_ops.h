// Dense and sparse compute kernels. These are the numeric workhorses behind the graph
// executor, the collectives (element-wise reduction), and the sparse gather / scatter
// updates. (Sparse coalescing and summation live in indexed_slices.h: MultiVariableSum.)
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

Tensor Tanh(const Tensor& a);
Tensor TanhGrad(const Tensor& output, const Tensor& grad);  // grad * (1 - output^2)
Tensor Relu(const Tensor& a);
Tensor ReluGrad(const Tensor& input, const Tensor& grad);
Tensor Sigmoid(const Tensor& a);

// Row-wise softmax over the last dimension of a 2-D tensor (numerically stabilized).
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

// The instantiations of the register-strip core behind the three matmul kernels. Both
// give every output element the same sequence of rounded operations, so they agree bit
// for bit; only the number of columns computed side by side differs.
enum class MatMulIsa {
  kVec4,  // 4-lane vectors at the build's baseline ISA (SSE2 on x86-64); runs anywhere
  kAvx2,  // 8-lane AVX2 vectors, never fused multiply-add; x86-64 CPUs with AVX2 only
};
// Whether this CPU can run `isa`'s instantiation.
bool MatMulIsaSupported(MatMulIsa isa);
// The instantiation the public kernels run: kAvx2 where it is supported, kVec4 otherwise.
MatMulIsa ActiveMatMulIsa();
// "vec4" or "avx2".
const char* MatMulIsaName(MatMulIsa isa);
// MatMulInto, MatMulTransposeAInto and MatMulTransposeBInto on a chosen instantiation,
// so tests can check each one, not only the one this CPU dispatches to. `isa` must be
// supported.
void MatMulInto(MatMulIsa isa, Tensor& out, const Tensor& a, const Tensor& b);
void MatMulTransposeAInto(MatMulIsa isa, Tensor& out, const Tensor& a, const Tensor& b);
void MatMulTransposeBInto(MatMulIsa isa, Tensor& out, const Tensor& a, const Tensor& b);

}  // namespace internal

// ---- Initializers ----

Tensor RandomNormal(TensorShape shape, Rng& rng, float stddev = 1.0f);
// Glorot/Xavier uniform for a [fan_in, fan_out] matrix.
Tensor GlorotUniform(TensorShape shape, Rng& rng);

// ---- Comparisons ----

// Max |a - b| over all elements; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace parallax

#endif  // PARALLAX_SRC_TENSOR_TENSOR_OPS_H_
