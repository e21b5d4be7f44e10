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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

namespace parallax {

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

// RowSlotSum: the one sparse sum. It sums one variable's sparse gradient rows the way a
// parameter server's accumulator walks them, pair by pair in input order (paper section
// 3.2). A slot table over the variable's rows, one int32 per row and -1 where the row is
// free, maps each row to its slot in grow-only buffers: the first pair of a row opens its
// slot, every later pair adds into it in place. There is no sort, and once the buffers
// have grown to a step's size a sum allocates nothing.
//
// The table belongs to the caller, one per variable, and serves every sum over that
// variable, one at a time: Begin borrows it with every entry -1, End frees the entries
// the sum set by walking only the rows it touched. The sums stay readable until the next
// Begin, so sums over the same table can feed one another (the per-machine sums of a
// step feed its global sum).
class RowSlotSum {
 public:
  // How a row's sum starts.
  enum class Start {
    // +0, then every contribution in order. Coalescing one input, or a machine's ranks
    // in (rank, position) order, is this.
    kFromZero,
    // A row with exactly one contribution is that contribution as is, read in place
    // (its input must outlive the sum); any other row starts from +0 and adds every
    // contribution in order.
    kKeepSingle,
  };

  // Opens a sum of rows `width` floats wide over `table` (one entry per row of the
  // variable, every entry -1) for at most `max_rows` distinct rows.
  void Begin(std::span<int32_t> table, int64_t width, int64_t max_rows, Start start);
  // Adds one pair: `values` points at the row's `width` floats.
  void Add(int64_t row, const float* values) {
    int32_t& slot = table_[static_cast<size_t>(row)];
    if (slot < 0) {
      Open(slot, row, values);
      return;
    }
    float* sum = sums_.data() + static_cast<int64_t>(slot) * width_;
    if (start_ == Start::kKeepSingle && count_[static_cast<size_t>(slot)]++ == 1) {
      const float* first = first_[static_cast<size_t>(slot)];
      for (int64_t j = 0; j < width_; ++j) {
        sum[j] = 0.0f;
        sum[j] += first[j];
      }
    }
    for (int64_t j = 0; j < width_; ++j) {
      sum[j] += values[j];
    }
  }
  // Adds every pair of `slices` in order; its dense shape must fit the table and width.
  void Add(const IndexedSlices& slices);
  // Frees the table entries this sum set; the table is all -1 again.
  void End();

  // Distinct rows summed, in the order of their first pair.
  int64_t size() const { return size_; }
  int64_t row(int64_t slot) const { return rows_[static_cast<size_t>(slot)]; }
  // The slot's sum, `width` floats.
  const float* sum(int64_t slot) const {
    return start_ == Start::kKeepSingle && count_[static_cast<size_t>(slot)] == 1
               ? first_[static_cast<size_t>(slot)]
               : sums_.data() + slot * width_;
  }

 private:
  void Open(int32_t& slot, int64_t row, const float* values);

  std::span<int32_t> table_;
  int64_t width_ = 0;
  int64_t max_rows_ = 0;
  Start start_ = Start::kFromZero;
  int64_t size_ = 0;
  // Per slot, grow-only: its row, its first contribution and how many it has seen
  // (kKeepSingle), and its sum (width_ floats, unused by a kept single).
  std::vector<int64_t> rows_;
  std::vector<const float*> first_;
  std::vector<int32_t> count_;
  std::vector<float> sums_;
};

// The number of distinct rows in `rows`, counted on a slot table as RowSlotSum borrows
// it (every entry -1 before and after).
int64_t CountDistinctRows(std::span<const int64_t> rows, std::span<int32_t> table);

}  // namespace parallax

#endif  // PARALLAX_SRC_TENSOR_INDEXED_SLICES_H_
