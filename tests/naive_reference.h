// Naive reference implementations of the sparse aggregation kernels and the dense
// matmuls — the seed's semantics, kept verbatim in spirit as (a) the bit-for-bit oracle
// for the property tests and (b) the baseline the micro-benchmarks measure the fused and
// register-strip paths against. Shared by tests/sparse_fused_test.cc,
// tests/matmul_kernel_test.cc and bench/bench_micro.cc so the oracle and the benchmark
// baseline cannot drift apart.
#ifndef PARALLAX_TESTS_NAIVE_REFERENCE_H_
#define PARALLAX_TESTS_NAIVE_REFERENCE_H_

#include <algorithm>
#include <map>
#include <vector>

#include "src/ps/partition.h"
#include "src/tensor/indexed_slices.h"

namespace parallax {

// The seed MatMul, C = A x B with A: [m, k], B: [k, n]: i-k-j loop order into a
// zero-filled C, skipping zero A entries.
inline Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  int64_t n = b.shape().dim(1);
  Tensor c = Tensor::Zeros(TensorShape({m, n}));
  float* cv = c.mutable_floats().data();
  auto av = a.floats();
  auto bv = b.floats();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      float aip = av[static_cast<size_t>(i * k + p)];
      if (aip == 0.0f) {
        continue;
      }
      const float* brow = &bv[static_cast<size_t>(p * n)];
      float* crow = cv + i * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += aip * brow[j];
      }
    }
  }
  return c;
}

// The seed MatMulTransposeA, C = A^T x B with A: [k, m], B: [k, n]: p-i-j loop order
// into a zero-filled C, skipping zero A entries.
inline Tensor NaiveMatMulTransposeA(const Tensor& a, const Tensor& b) {
  int64_t k = a.shape().dim(0);
  int64_t m = a.shape().dim(1);
  int64_t n = b.shape().dim(1);
  Tensor c = Tensor::Zeros(TensorShape({m, n}));
  float* cv = c.mutable_floats().data();
  auto av = a.floats();
  auto bv = b.floats();
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = &av[static_cast<size_t>(p * m)];
    const float* brow = &bv[static_cast<size_t>(p * n)];
    for (int64_t i = 0; i < m; ++i) {
      float aip = arow[i];
      if (aip == 0.0f) {
        continue;
      }
      float* crow = cv + i * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += aip * brow[j];
      }
    }
  }
  return c;
}

// The seed MatMulTransposeB, C = A x B^T with A: [m, k], B: [n, k]: one serial dot
// product per output element, no zero skipping.
inline Tensor NaiveMatMulTransposeB(const Tensor& a, const Tensor& b) {
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  int64_t n = b.shape().dim(0);
  Tensor c = Tensor::Zeros(TensorShape({m, n}));
  float* cv = c.mutable_floats().data();
  auto av = a.floats();
  auto bv = b.floats();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = &av[static_cast<size_t>(i * k)];
    float* crow = cv + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = &bv[static_cast<size_t>(j * k)];
      float sum = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        sum += arow[p] * brow[p];
      }
      crow[j] = sum;
    }
  }
  return c;
}

// The seed Coalesced: std::map slot assignment, accumulation in input order.
inline IndexedSlices NaiveCoalesce(const IndexedSlices& slices) {
  int64_t row = slices.row_elements();
  std::map<int64_t, int64_t> first_slot;
  for (int64_t index : slices.indices()) {
    first_slot.emplace(index, 0);
  }
  std::vector<int64_t> out_indices;
  out_indices.reserve(first_slot.size());
  for (auto& [index, slot] : first_slot) {
    slot = static_cast<int64_t>(out_indices.size());
    out_indices.push_back(index);
  }
  Tensor out_values = Tensor::Zeros(
      slices.values().shape().WithDim0(static_cast<int64_t>(out_indices.size())));
  auto out = out_values.mutable_floats();
  auto in = slices.values().floats();
  for (int64_t i = 0; i < slices.nnz_rows(); ++i) {
    int64_t slot = first_slot[slices.indices()[static_cast<size_t>(i)]];
    for (int64_t j = 0; j < row; ++j) {
      out[static_cast<size_t>(slot * row + j)] += in[static_cast<size_t>(i * row + j)];
    }
  }
  return IndexedSlices(std::move(out_indices), std::move(out_values),
                       slices.dense_shape());
}

// The seed Sum: materialize the concatenation, then coalesce it.
inline IndexedSlices NaiveSum(const std::vector<IndexedSlices>& slices) {
  return NaiveCoalesce(IndexedSlices::Concat(slices));
}

// The seed ScatterSgdUpdate: one sequential pass in input order.
inline void NaiveScatterSgd(Tensor& params, const IndexedSlices& grad,
                            float learning_rate) {
  int64_t row = params.shape().row_elements();
  auto dst = params.mutable_floats();
  auto src = grad.values().floats();
  for (int64_t i = 0; i < grad.nnz_rows(); ++i) {
    int64_t base = grad.indices()[static_cast<size_t>(i)] * row;
    for (int64_t j = 0; j < row; ++j) {
      dst[static_cast<size_t>(base + j)] -=
          learning_rate * src[static_cast<size_t>(i * row + j)];
    }
  }
}

// The seed SplitSlicesByPartition: per-piece push_back growth, then a copy pass.
inline std::vector<IndexedSlices> NaiveSplit(const IndexedSlices& slices,
                                             const RowPartition& partition) {
  const int p_count = partition.num_partitions();
  const int64_t row = slices.row_elements();
  std::vector<std::vector<int64_t>> piece_indices(static_cast<size_t>(p_count));
  std::vector<std::vector<int64_t>> piece_source_rows(static_cast<size_t>(p_count));
  for (int64_t i = 0; i < slices.nnz_rows(); ++i) {
    int64_t global_row = slices.indices()[static_cast<size_t>(i)];
    int p = partition.PartitionOfRow(global_row);
    piece_indices[static_cast<size_t>(p)].push_back(global_row - partition.RowBegin(p));
    piece_source_rows[static_cast<size_t>(p)].push_back(i);
  }
  auto values = slices.values().floats();
  std::vector<IndexedSlices> pieces;
  for (int p = 0; p < p_count; ++p) {
    int64_t nnz = static_cast<int64_t>(piece_indices[static_cast<size_t>(p)].size());
    Tensor piece_values = Tensor::Zeros(slices.values().shape().WithDim0(nnz));
    auto dst = piece_values.mutable_floats();
    for (int64_t i = 0; i < nnz; ++i) {
      int64_t src_row = piece_source_rows[static_cast<size_t>(p)][static_cast<size_t>(i)];
      std::copy_n(values.begin() + static_cast<ptrdiff_t>(src_row * row), row,
                  dst.begin() + static_cast<ptrdiff_t>(i * row));
    }
    pieces.emplace_back(std::move(piece_indices[static_cast<size_t>(p)]),
                        std::move(piece_values),
                        slices.dense_shape().WithDim0(partition.RowsIn(p)));
  }
  return pieces;
}

}  // namespace parallax

#endif  // PARALLAX_TESTS_NAIVE_REFERENCE_H_
