// IndexedSlices: the sparse-gradient representation, mirroring TensorFlow's type of the
// same name. A gradient with respect to a variable accessed through Gather touches only a
// subset of rows; IndexedSlices stores those row indices plus a dense block of row values.
//
// The existence of this type — rather than a flag — is load-bearing for Parallax: the
// sparsity analyzer classifies a variable as sparse exactly when autodiff produces an
// IndexedSlices gradient for it (paper section 5, "Identifying the sparsity of a variable").
#ifndef PARALLAX_SRC_TENSOR_INDEXED_SLICES_H_
#define PARALLAX_SRC_TENSOR_INDEXED_SLICES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

namespace parallax {

class SparseWorkspace;

class IndexedSlices {
 public:
  IndexedSlices() = default;

  // indices: row ids into the dense variable (may contain duplicates, as raw gradients
  // from embedding lookups do). values: shape [indices.size(), row_elements...].
  // dense_shape: shape of the variable this gradient applies to.
  IndexedSlices(std::vector<int64_t> indices, Tensor values, TensorShape dense_shape);

  // Copies/moves carry the unique-rows cache along (the atomic member is not copyable
  // by default).
  IndexedSlices(const IndexedSlices& other)
      : indices_(other.indices_),
        values_(other.values_),
        dense_shape_(other.dense_shape_),
        unique_rows_cache_(other.unique_rows_cache_.load(std::memory_order_relaxed)) {}
  IndexedSlices(IndexedSlices&& other) noexcept
      : indices_(std::move(other.indices_)),
        values_(std::move(other.values_)),
        dense_shape_(std::move(other.dense_shape_)),
        unique_rows_cache_(
            other.unique_rows_cache_.exchange(-1, std::memory_order_relaxed)) {}
  IndexedSlices& operator=(const IndexedSlices& other) {
    indices_ = other.indices_;
    values_ = other.values_;
    dense_shape_ = other.dense_shape_;
    unique_rows_cache_.store(other.unique_rows_cache_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    return *this;
  }
  IndexedSlices& operator=(IndexedSlices&& other) noexcept {
    indices_ = std::move(other.indices_);
    values_ = std::move(other.values_);
    dense_shape_ = std::move(other.dense_shape_);
    unique_rows_cache_.store(other.unique_rows_cache_.exchange(-1, std::memory_order_relaxed),
                             std::memory_order_relaxed);
    return *this;
  }

  // Rebuilds this object in place for pooled reuse: the indices are copied into the
  // existing vector (capacity reused), the dense shape replaced, and the unique-rows
  // cache invalidated. The values tensor is left untouched — the caller fills it
  // through mutable_values(), typically with an *Into kernel so its buffer is reused
  // too. The steady-state-allocation-free counterpart of constructing a fresh object.
  void ResetForReuse(std::span<const int64_t> indices, const TensorShape& dense_shape);

  int64_t nnz_rows() const { return static_cast<int64_t>(indices_.size()); }
  const std::vector<int64_t>& indices() const { return indices_; }
  const Tensor& values() const { return values_; }
  Tensor& mutable_values() { return values_; }
  const TensorShape& dense_shape() const { return dense_shape_; }
  int64_t row_elements() const { return dense_shape_.row_elements(); }

  // Bytes this gradient occupies on the wire: values + indices. The paper's analysis
  // neglects index bytes; we carry them for honest accounting (they are small).
  int64_t WireBytes() const;

  // Expands to a dense tensor of dense_shape (duplicate indices accumulate).
  Tensor ToDense() const;

  // Concatenates (gathers) slices without coalescing — the AllGatherv aggregation
  // semantics: [grad(X1), ..., grad(XN)] (paper section 2.1).
  static IndexedSlices Concat(const std::vector<IndexedSlices>& slices);

  // Multiplies all values by the scalar (for gradient averaging).
  void Scale(float factor);

  // Number of distinct row indices. Computed on first use by sorting a scratch copy
  // (no per-key hash nodes) and cached — indices_ is immutable after construction, so
  // repeated calls are free.
  int64_t unique_rows() const;

  // The fraction of the variable's rows touched by this gradient (after dedup):
  // the per-batch alpha of paper section 2.2.
  double AccessRatio() const;

  std::string DebugString() const;

 private:
  std::vector<int64_t> indices_;
  Tensor values_;            // [nnz_rows, row_elements]
  TensorShape dense_shape_;  // shape of the corresponding dense variable
  // Lazily computed from the immutable indices_; atomic so concurrent const readers
  // stay race-free (both writers would store the same value).
  mutable std::atomic<int64_t> unique_rows_cache_{-1};
};

// One variable's contributions inside a multi-variable fused sum. All inputs share a
// dense_shape; contributor order defines the per-row accumulation order.
struct SparseSumGroup {
  std::vector<const IndexedSlices*> inputs;  // non-empty, non-null
};

// Fused multi-variable aggregation — the one sparse sum kernel: coalesces and sums
// every group's contributions through ONE shared workspace pass — a single
// key/row-pointer fill, one segment build, and one (potentially parallel) segmented
// reduction over all groups. Each group's contiguous key range is stable-sorted
// independently (SortRangeByKey), so every sort stays cache-sized and keeps the group's
// own radix width; group ranges never mix, which is what composite keys would have
// bought at the cost of wider sorts. This is the "gradient aggregation ... iterating
// through nonzero indices one by one" whose cost partitioning parallelizes (paper
// section 3.2), for all sparse variables of a training step at once.
//
// result[g] holds group g's distinct indices in ascending order, each row the sum of
// that index's contributions in (contributor, row) order starting from +0 — bit-
// identical to coalescing Concat(inputs) with the naive slot map: pairs are enumerated
// group-major in (contributor, row) order and each subsort is stable, so each output
// row accumulates the same values in the same order; segments never cross group
// boundaries (BuildSegmentsInRanges). A group of one input is that input coalesced.
std::vector<IndexedSlices> MultiVariableSum(const std::vector<SparseSumGroup>& groups,
                                            SparseWorkspace* workspace = nullptr);

// Streaming form of MultiVariableSum: the same shared pass, but every coalesced output
// row is handed to `consume(group, row_index, row_values)` instead of being
// materialized into per-group tensors. This is the aggregate-and-apply fusion of the
// PS engine's step path — with the scale and the SGD update folded into `consume`, a
// step's sparse synchronization touches no intermediate gradient tensor at all.
//
// `row_values` points either directly at the (sole) contributing input row or at a
// reusable scratch sum — consume must treat it as read-only and not retain it. Rows
// arrive coalesced (each (group, row) exactly once, summed in the order
// MultiVariableSum uses); distinct rows may be consumed concurrently from different
// lanes, so `consume` must only write through its own (group, row).
//
// When `unique_rows_out` is non-null it is resized to groups.size() and filled with
// each group's coalesced row count — the number of distinct indices in the group's
// aggregated gradient. The counts fall out of the segment table the pass builds
// anyway (one subtraction per group), so observation costs nothing beyond the copy;
// passing nullptr — the default — skips even that. This is the nnz tap behind the
// sparsity monitor's measured alpha (core/sparsity_monitor.h).
void MultiVariableSumStream(
    const std::vector<SparseSumGroup>& groups, SparseWorkspace* workspace,
    const std::function<void(int64_t, int64_t, const float*)>& consume,
    std::vector<int64_t>* unique_rows_out = nullptr);

}  // namespace parallax

#endif  // PARALLAX_SRC_TENSOR_INDEXED_SLICES_H_
