#include "src/tensor/indexed_slices.h"

#include <algorithm>
#include <limits>

#include "src/base/strings.h"

namespace parallax {

IndexedSlices::IndexedSlices(std::vector<int64_t> indices, Tensor values,
                             TensorShape dense_shape)
    : indices_(std::move(indices)),
      values_(std::move(values)),
      dense_shape_(std::move(dense_shape)) {
  PX_CHECK_GE(dense_shape_.rank(), 1);
  PX_CHECK_EQ(values_.shape().dim(0), static_cast<int64_t>(indices_.size()));
  PX_CHECK_EQ(values_.shape().row_elements(), dense_shape_.row_elements());
  for (int64_t index : indices_) {
    PX_CHECK_GE(index, 0);
    PX_CHECK_LT(index, dense_shape_.dim(0));
  }
}

void IndexedSlices::ResetForReuse(std::span<const int64_t> indices,
                                  const TensorShape& dense_shape) {
  PX_CHECK_GE(dense_shape.rank(), 1);
  indices_.assign(indices.begin(), indices.end());
  dense_shape_ = dense_shape;  // copy-assign: the dims vector's capacity is reused
  unique_rows_cache_.store(-1, std::memory_order_relaxed);
}

int64_t IndexedSlices::WireBytes() const {
  return nnz_rows() * row_elements() * static_cast<int64_t>(sizeof(float)) +
         nnz_rows() * static_cast<int64_t>(sizeof(int64_t));
}

Tensor IndexedSlices::ToDense() const {
  Tensor dense = Tensor::Zeros(dense_shape_);
  auto out = dense.mutable_floats();
  auto in = values_.floats();
  int64_t row = row_elements();
  for (int64_t i = 0; i < nnz_rows(); ++i) {
    int64_t base = indices_[static_cast<size_t>(i)] * row;
    for (int64_t j = 0; j < row; ++j) {
      out[static_cast<size_t>(base + j)] += in[static_cast<size_t>(i * row + j)];
    }
  }
  return dense;
}

void RowSlotSum::Begin(std::span<int32_t> table, int64_t width, int64_t max_rows,
                       Start start) {
  PX_CHECK_GE(width, 1);
  PX_CHECK_GE(max_rows, 0);
  PX_CHECK_LE(max_rows, static_cast<int64_t>(std::numeric_limits<int32_t>::max()));
  table_ = table;
  width_ = width;
  max_rows_ = max_rows;
  start_ = start;
  size_ = 0;
  // Grow-only: a sum no larger than an earlier one leaves every buffer as it is.
  if (rows_.size() < static_cast<size_t>(max_rows)) {
    rows_.resize(static_cast<size_t>(max_rows));
    first_.resize(static_cast<size_t>(max_rows));
    count_.resize(static_cast<size_t>(max_rows));
  }
  if (sums_.size() < static_cast<size_t>(max_rows * width)) {
    sums_.resize(static_cast<size_t>(max_rows * width));
  }
}

void RowSlotSum::Open(int32_t& slot, int64_t row, const float* values) {
  PX_CHECK_LT(size_, max_rows_) << "more distinct rows than the sum was opened for";
  slot = static_cast<int32_t>(size_);
  rows_[static_cast<size_t>(size_)] = row;
  ++size_;
  if (start_ == Start::kKeepSingle) {
    first_[static_cast<size_t>(slot)] = values;
    count_[static_cast<size_t>(slot)] = 1;
    return;
  }
  float* sum = sums_.data() + static_cast<int64_t>(slot) * width_;
  for (int64_t j = 0; j < width_; ++j) {
    sum[j] = 0.0f;
    sum[j] += values[j];
  }
}

void RowSlotSum::Add(const IndexedSlices& slices) {
  PX_CHECK_EQ(slices.row_elements(), width_);
  PX_CHECK_LE(slices.dense_shape().dim(0), static_cast<int64_t>(table_.size()));
  const float* values = slices.values().floats().data();
  const std::vector<int64_t>& indices = slices.indices();
  for (size_t i = 0; i < indices.size(); ++i) {
    Add(indices[i], values + static_cast<int64_t>(i) * width_);
  }
}

void RowSlotSum::End() {
  for (int64_t s = 0; s < size_; ++s) {
    table_[static_cast<size_t>(rows_[static_cast<size_t>(s)])] = -1;
  }
}

int64_t CountDistinctRows(std::span<const int64_t> rows, std::span<int32_t> table) {
  int64_t distinct = 0;
  for (int64_t row : rows) {
    int32_t& entry = table[static_cast<size_t>(row)];
    if (entry < 0) {
      entry = 0;
      ++distinct;
    }
  }
  for (int64_t row : rows) {
    table[static_cast<size_t>(row)] = -1;
  }
  return distinct;
}

IndexedSlices IndexedSlices::Concat(const std::vector<IndexedSlices>& slices) {
  PX_CHECK(!slices.empty());
  const TensorShape& dense_shape = slices.front().dense_shape();
  int64_t row = slices.front().row_elements();
  int64_t total_rows = 0;
  for (const IndexedSlices& s : slices) {
    PX_CHECK(s.dense_shape() == dense_shape);
    total_rows += s.nnz_rows();
  }
  std::vector<int64_t> indices;
  indices.reserve(static_cast<size_t>(total_rows));
  Tensor values = Tensor::Zeros(slices.front().values().shape().WithDim0(total_rows));
  auto out = values.mutable_floats();
  int64_t offset = 0;
  for (const IndexedSlices& s : slices) {
    indices.insert(indices.end(), s.indices().begin(), s.indices().end());
    auto in = s.values().floats();
    std::copy(in.begin(), in.end(), out.begin() + static_cast<ptrdiff_t>(offset * row));
    offset += s.nnz_rows();
  }
  return IndexedSlices(std::move(indices), std::move(values), dense_shape);
}

void IndexedSlices::Scale(float factor) {
  for (float& v : values_.mutable_floats()) {
    v *= factor;
  }
}

int64_t IndexedSlices::unique_rows() const {
  int64_t cached = unique_rows_cache_.load(std::memory_order_relaxed);
  if (cached >= 0) {
    return cached;
  }
  // Sort a scratch copy and count distinct values — no per-key hash nodes. The result
  // is cached: indices_ is immutable for the lifetime of the object, and concurrent
  // first calls simply store the same value.
  std::vector<int64_t> sorted(indices_);
  std::sort(sorted.begin(), sorted.end());
  int64_t unique = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) {
      ++unique;
    }
  }
  unique_rows_cache_.store(unique, std::memory_order_relaxed);
  return unique;
}

double IndexedSlices::AccessRatio() const {
  if (dense_shape_.dim(0) == 0) {
    return 0.0;
  }
  return static_cast<double>(unique_rows()) / static_cast<double>(dense_shape_.dim(0));
}

std::string IndexedSlices::DebugString() const {
  return StrFormat("IndexedSlices<nnz_rows=%lld dense_shape=%s>",
                   static_cast<long long>(nnz_rows()), dense_shape_.ToString().c_str());
}

}  // namespace parallax
