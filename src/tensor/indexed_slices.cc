#include "src/tensor/indexed_slices.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/tensor/sparse_workspace.h"

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

namespace {

// Shared front half of the fused multi-variable pipeline: one key / row-pointer fill
// over all groups (group-major, (contributor, row) order — the order Concat would
// materialize), one independent stable subsort per group range (cache-sized,
// group-local radix width), and one segment build that never merges across group
// boundaries. Returns false when there are no pairs at all.
struct MultiSortLayout {
  std::vector<int64_t> pair_start;  // [groups + 1] pair range per group
  std::vector<int64_t> width;       // [groups] row elements per group
  std::vector<int64_t> first_seg;   // [groups + 1] segment range per group
  const std::vector<int64_t>* seg = nullptr;  // workspace segment table
  int64_t num_seg = 0;
  int64_t total_elements = 0;
};

bool FusedMultiSort(const std::vector<SparseSumGroup>& groups, SparseWorkspace& ws,
                    MultiSortLayout& layout) {
  const int64_t num_groups = static_cast<int64_t>(groups.size());
  layout.pair_start.assign(static_cast<size_t>(num_groups) + 1, 0);
  layout.width.assign(static_cast<size_t>(num_groups), 0);
  layout.total_elements = 0;
  for (int64_t g = 0; g < num_groups; ++g) {
    const SparseSumGroup& group = groups[static_cast<size_t>(g)];
    PX_CHECK(!group.inputs.empty());
    const TensorShape& dense_shape = group.inputs.front()->dense_shape();
    layout.width[static_cast<size_t>(g)] = dense_shape.row_elements();
    int64_t group_pairs = 0;
    for (const IndexedSlices* s : group.inputs) {
      PX_CHECK(s != nullptr);
      PX_CHECK(s->dense_shape() == dense_shape);
      group_pairs += s->nnz_rows();
      layout.total_elements += s->nnz_rows() * layout.width[static_cast<size_t>(g)];
    }
    layout.pair_start[static_cast<size_t>(g) + 1] =
        layout.pair_start[static_cast<size_t>(g)] + group_pairs;
  }
  const int64_t total = layout.pair_start.back();
  if (total == 0) {
    return false;
  }

  auto& keys = ws.sort_keys(total);
  auto& rows = ws.row_ptrs(total);
  int64_t p = 0;
  for (int64_t g = 0; g < num_groups; ++g) {
    const int64_t row = layout.width[static_cast<size_t>(g)];
    for (const IndexedSlices* s : groups[static_cast<size_t>(g)].inputs) {
      auto values = s->values().floats();
      const std::vector<int64_t>& idx = s->indices();
      for (int64_t i = 0; i < s->nnz_rows(); ++i, ++p) {
        keys[static_cast<size_t>(p)] = idx[static_cast<size_t>(i)];
        rows[static_cast<size_t>(p)] = values.data() + i * row;
      }
    }
  }
  for (int64_t g = 0; g < num_groups; ++g) {
    ws.SortRangeByKey(layout.pair_start[static_cast<size_t>(g)],
                      layout.pair_start[static_cast<size_t>(g) + 1],
                      groups[static_cast<size_t>(g)].inputs.front()->dense_shape().dim(0) - 1);
  }
  layout.seg = &ws.BuildSegmentsInRanges(layout.pair_start);
  layout.num_seg = static_cast<int64_t>(layout.seg->size()) - 1;

  // Group g owns the contiguous segment run [first_seg[g], first_seg[g+1]) — segment
  // starts ascend with the pair ranges.
  layout.first_seg.assign(static_cast<size_t>(num_groups) + 1, 0);
  int64_t s = 0;
  for (int64_t g = 0; g <= num_groups; ++g) {
    while (s < layout.num_seg &&
           (*layout.seg)[static_cast<size_t>(s)] < layout.pair_start[static_cast<size_t>(g)]) {
      ++s;
    }
    layout.first_seg[static_cast<size_t>(g)] = s;
  }
  return true;
}

}  // namespace

std::vector<IndexedSlices> MultiVariableSum(const std::vector<SparseSumGroup>& groups,
                                            SparseWorkspace* workspace) {
  SparseWorkspace local;
  SparseWorkspace& ws = workspace != nullptr ? *workspace : local;
  const int64_t num_groups = static_cast<int64_t>(groups.size());

  auto empty_for = [&](int64_t g) {
    const IndexedSlices& front = *groups[static_cast<size_t>(g)].inputs.front();
    return IndexedSlices({}, Tensor::Zeros(front.values().shape().WithDim0(0)),
                         front.dense_shape());
  };
  MultiSortLayout layout;
  std::vector<IndexedSlices> result;
  result.reserve(static_cast<size_t>(num_groups));
  if (!FusedMultiSort(groups, ws, layout)) {
    for (int64_t g = 0; g < num_groups; ++g) {
      result.push_back(empty_for(g));
    }
    return result;
  }
  const std::vector<int64_t>& seg = *layout.seg;
  const std::vector<int64_t>& first_seg = layout.first_seg;
  const std::vector<int64_t>& sorted_keys = ws.sorted_keys();
  const std::vector<int64_t>& pos = ws.sorted_pos();
  const std::vector<const float*>& rows = ws.row_ptrs(layout.pair_start.back());

  std::vector<std::vector<int64_t>> out_indices(static_cast<size_t>(num_groups));
  std::vector<Tensor> out_values(static_cast<size_t>(num_groups));
  std::vector<float*> out_ptr(static_cast<size_t>(num_groups), nullptr);
  for (int64_t g = 0; g < num_groups; ++g) {
    const int64_t n_out =
        first_seg[static_cast<size_t>(g) + 1] - first_seg[static_cast<size_t>(g)];
    const IndexedSlices& front = *groups[static_cast<size_t>(g)].inputs.front();
    out_indices[static_cast<size_t>(g)].resize(static_cast<size_t>(n_out));
    out_values[static_cast<size_t>(g)] = Tensor::Zeros(front.values().shape().WithDim0(n_out));
    out_ptr[static_cast<size_t>(g)] = out_values[static_cast<size_t>(g)].mutable_floats().data();
  }

  ParallelOverSegments(ws, layout.num_seg, layout.total_elements,
                       [&](int64_t s_begin, int64_t s_end) {
    // Group of the first segment in this range; advances as segments cross group
    // boundaries (empty groups own no segments, so walking lands on the right one).
    int64_t g = static_cast<int64_t>(
                    std::upper_bound(first_seg.begin(), first_seg.end(), s_begin) -
                    first_seg.begin()) -
                1;
    for (int64_t s = s_begin; s < s_end; ++s) {
      while (s >= first_seg[static_cast<size_t>(g) + 1]) {
        ++g;
      }
      const int64_t row = layout.width[static_cast<size_t>(g)];
      const int64_t local_s = s - first_seg[static_cast<size_t>(g)];
      out_indices[static_cast<size_t>(g)][static_cast<size_t>(local_s)] =
          sorted_keys[static_cast<size_t>(seg[static_cast<size_t>(s)])];
      float* dst = out_ptr[static_cast<size_t>(g)] + local_s * row;
      for (int64_t i = seg[static_cast<size_t>(s)]; i < seg[static_cast<size_t>(s) + 1]; ++i) {
        const float* src = rows[static_cast<size_t>(pos[static_cast<size_t>(i)])];
        for (int64_t j = 0; j < row; ++j) {
          dst[j] += src[j];
        }
      }
    }
  });

  for (int64_t g = 0; g < num_groups; ++g) {
    result.emplace_back(std::move(out_indices[static_cast<size_t>(g)]),
                        std::move(out_values[static_cast<size_t>(g)]),
                        groups[static_cast<size_t>(g)].inputs.front()->dense_shape());
  }
  return result;
}

void MultiVariableSumStream(
    const std::vector<SparseSumGroup>& groups, SparseWorkspace* workspace,
    const std::function<void(int64_t, int64_t, const float*)>& consume,
    std::vector<int64_t>* unique_rows_out) {
  SparseWorkspace local;
  SparseWorkspace& ws = workspace != nullptr ? *workspace : local;
  MultiSortLayout layout;
  if (!FusedMultiSort(groups, ws, layout)) {
    if (unique_rows_out != nullptr) {
      unique_rows_out->assign(groups.size(), 0);
    }
    return;
  }
  if (unique_rows_out != nullptr) {
    unique_rows_out->resize(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      (*unique_rows_out)[g] = layout.first_seg[g + 1] - layout.first_seg[g];
    }
  }
  const std::vector<int64_t>& seg = *layout.seg;
  const std::vector<int64_t>& first_seg = layout.first_seg;
  const std::vector<int64_t>& sorted_keys = ws.sorted_keys();
  const std::vector<int64_t>& pos = ws.sorted_pos();
  const std::vector<const float*>& rows = ws.row_ptrs(layout.pair_start.back());

  // Each output row is produced by exactly one lane, so a thread-safe consume
  // (disjoint destinations) parallelizes cleanly. Single-contribution rows — the
  // common case for sparse gradients — stream straight from the input; only genuine
  // duplicates are summed into the per-lane scratch row (a fresh zero accumulation,
  // bit-identical to the materializing reduction).
  ParallelOverSegments(ws, layout.num_seg, layout.total_elements,
                       [&](int64_t s_begin, int64_t s_end) {
    int64_t g = static_cast<int64_t>(
                    std::upper_bound(first_seg.begin(), first_seg.end(), s_begin) -
                    first_seg.begin()) -
                1;
    // Per-thread scratch row, grow-only across chunks and steps: the duplicate-row
    // path stays allocation-free once warm.
    static thread_local std::vector<float> row_buffer;
    for (int64_t s = s_begin; s < s_end; ++s) {
      while (s >= first_seg[static_cast<size_t>(g) + 1]) {
        ++g;
      }
      const int64_t row = layout.width[static_cast<size_t>(g)];
      const int64_t begin = seg[static_cast<size_t>(s)];
      const int64_t end = seg[static_cast<size_t>(s) + 1];
      const int64_t key = sorted_keys[static_cast<size_t>(begin)];
      if (end - begin == 1) {
        consume(g, key, rows[static_cast<size_t>(pos[static_cast<size_t>(begin)])]);
        continue;
      }
      row_buffer.assign(static_cast<size_t>(row), 0.0f);
      for (int64_t i = begin; i < end; ++i) {
        const float* src = rows[static_cast<size_t>(pos[static_cast<size_t>(i)])];
        for (int64_t j = 0; j < row; ++j) {
          row_buffer[static_cast<size_t>(j)] += src[j];
        }
      }
      consume(g, key, row_buffer.data());
    }
  });
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
