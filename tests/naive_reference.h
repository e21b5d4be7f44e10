// Naive reference implementations of the sparse aggregation kernels, the parameter
// server's per-variable step, the dense matmuls, the softmax and the Gaussian draws — the
// seed's semantics, kept verbatim in spirit as (a) the bit-for-bit oracle for the
// property tests and (b) the baseline the micro-benchmarks measure the slot-table sum and
// the register strips against.
// The library has one sparse sum, RowSlotSum's slot-table pass, and holds every
// variable whole; the seed's per-variable pipeline (sum, scale, split by partition,
// scatter into each row piece), its row-range partitioning and its AllReduce sum survive
// only here, as NaivePsVariableStep, RowPartition and NaiveAllReduceSum. Shared by
// tests/sparse_fused_test.cc, tests/ps_numeric_test.cc, tests/partition_test.cc, tests/engine_equivalence_test.cc,
// tests/matmul_kernel_test.cc, tests/softmax_kernel_test.cc, tests/random_normal_test.cc
// and bench/bench_micro.cc so the oracle and the benchmark baseline cannot drift apart.
#ifndef PARALLAX_TESTS_NAIVE_REFERENCE_H_
#define PARALLAX_TESTS_NAIVE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <vector>

#include "src/base/logging.h"
#include "src/base/math.h"
#include "src/comm/reduce.h"
#include "src/graph/executor.h"
#include "src/tensor/indexed_slices.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {

// Row-range partitioning of a variable — TensorFlow's fixed_size_partitioner semantics,
// which is what Parallax's partitioner() scope tunes (paper sections 3.2, 4.1). A
// variable with R rows split P ways gives the first R % P pieces ceil(R/P) rows and the
// rest floor(R/P). The seed's parameter server stored each piece as its own tensor and
// routed every aggregated row to its piece (PartitionOfRow) at the piece-local row
// (row - RowBegin).
class RowPartition {
 public:
  RowPartition(int64_t num_rows, int num_partitions)
      : num_rows_(num_rows), num_partitions_(num_partitions) {
    PX_CHECK_GT(num_rows, 0);
    PX_CHECK_GT(num_partitions, 0);
    PX_CHECK_LE(static_cast<int64_t>(num_partitions), num_rows)
        << "more partitions than rows";
    base_rows_ = num_rows / num_partitions;
    remainder_ = num_rows % num_partitions;
  }

  int num_partitions() const { return num_partitions_; }
  int64_t num_rows() const { return num_rows_; }
  // Balanced split: the first `remainder_` pieces hold base+1 rows — the same
  // convention (and the same base/math.h formula) the ring collectives use to chunk a
  // gradient.
  int64_t RowBegin(int partition) const {
    PX_CHECK_GE(partition, 0);
    PX_CHECK_LE(partition, num_partitions_);
    return BalancedSplitBegin(num_rows_, num_partitions_, partition);
  }
  int64_t RowsIn(int partition) const { return RowBegin(partition + 1) - RowBegin(partition); }
  int PartitionOfRow(int64_t row) const {
    PX_CHECK_GE(row, 0);
    PX_CHECK_LT(row, num_rows_);
    // Rows [0, remainder*(base+1)) live in the larger pieces.
    const int64_t large_span = remainder_ * (base_rows_ + 1);
    if (row < large_span) {
      return static_cast<int>(row / (base_rows_ + 1));
    }
    return static_cast<int>(remainder_ + (row - large_span) / base_rows_);
  }

 private:
  int64_t num_rows_;
  int num_partitions_;
  int64_t base_rows_;   // floor(num_rows / num_partitions)
  int64_t remainder_;   // num_rows % num_partitions
};

// Splits a dense tensor into per-piece row blocks.
inline std::vector<Tensor> SplitRowsByPartition(const Tensor& value,
                                                const RowPartition& partition) {
  std::vector<Tensor> pieces;
  pieces.reserve(static_cast<size_t>(partition.num_partitions()));
  for (int p = 0; p < partition.num_partitions(); ++p) {
    pieces.push_back(SliceRows(value, partition.RowBegin(p), partition.RowBegin(p + 1)));
  }
  return pieces;
}

// Inverse of SplitRowsByPartition: stitches pieces back into the full tensor.
inline Tensor StitchPartitions(const std::vector<Tensor>& pieces,
                               const RowPartition& partition) {
  PX_CHECK_EQ(static_cast<int>(pieces.size()), partition.num_partitions());
  Tensor full = ConcatRows(pieces);
  PX_CHECK_EQ(full.shape().dim(0), partition.num_rows());
  return full;
}

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

// The seed SoftmaxRows loop on [rows, cols] floats, cols >= 1: per row, the max folded
// left to right with std::max, then exp(x - max) of every element with the exps summed
// left to right, then every exp divided by the sum. `exp` is the library's own
// (internal::ScalarExp) for the tests' oracle; the seed called libm's, which
// bench_micro's BM_SoftmaxLibm passes.
template <typename Exp>
inline void NaiveSoftmaxRowsInto(float* dst, const float* src, int64_t rows, int64_t cols,
                                 Exp exp) {
  std::copy_n(src, rows * cols, dst);
  for (int64_t r = 0; r < rows; ++r) {
    float* row = dst + r * cols;
    float max_val = row[0];
    for (int64_t c = 1; c < cols; ++c) {
      max_val = std::max(max_val, row[c]);
    }
    float sum = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = exp(row[c] - max_val);
      sum += row[c];
    }
    for (int64_t c = 0; c < cols; ++c) {
      row[c] /= sum;
    }
  }
}

inline Tensor NaiveSoftmaxRows(const Tensor& logits) {
  const int64_t rows = logits.shape().dim(0);
  const int64_t cols = logits.shape().dim(1);
  Tensor out = Tensor::Zeros(logits.shape());
  NaiveSoftmaxRowsInto(out.mutable_floats().data(), logits.floats().data(), rows, cols,
                       internal::ScalarExp);
  return out;
}

// The seed's Box–Muller value of one pair of uniforms: u1 clamped away from 0, then
// sqrt(-2 log u1) cos(2 pi u2) with libm's log and cos. Spelled out rather than calling
// BoxMuller (rng.h), which the kernel under test shares.
inline double NaiveBoxMuller(double u1, double u2) {
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

// The seed RandomNormal loop: per element, u1 then u2 from the Rng, and their
// NaiveBoxMuller value rounded to float and scaled. bench_micro's
// BM_RandomNormalSeedLoop times it.
inline void NaiveRandomNormalInto(std::span<float> out, Rng& rng, float stddev) {
  for (float& v : out) {
    const double u1 = rng.NextDouble();
    const double u2 = rng.NextDouble();
    v = static_cast<float>(NaiveBoxMuller(u1, u2)) * stddev;
  }
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

// The seed AllReduce sum: a copy of the first contribution, then every other one added
// in index order.
inline Tensor NaiveAllReduceSum(const std::vector<Tensor>& contributions) {
  PX_CHECK(!contributions.empty());
  Tensor result = contributions.front().Clone();
  for (size_t i = 1; i < contributions.size(); ++i) {
    AddInPlace(result, contributions[i]);
  }
  return result;
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

// The seed sparse split by partition: per-piece push_back growth, then a copy pass.
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

// The seed parameter server's step for one variable — the oracle for
// PsNumericEngine::ApplyStep, which sums each sparse variable on its slot table and
// updates each variable whole, whatever the plan's partition count. Ranks form machines of `ranks_per_machine` consecutive ranks (1 = no
// local aggregation). A sparse gradient is summed per machine with NaiveSum (a machine
// of one rank contributes its raw gradient), the machine sums are summed with NaiveSum,
// scaled by 1/ranks under kAverage, split with NaiveSplit, and every piece is updated
// with NaiveScatterSgd. A dense gradient takes the same two levels through
// NaiveAllReduceSum, then ScaleInPlace and one AxpyInPlace per piece. `value` is the
// variable's full tensor, stored as `partitions` row pieces while it is updated.
inline void NaivePsVariableStep(Tensor& value, int partitions, int variable,
                                const std::vector<StepResult>& per_rank,
                                int ranks_per_machine, AggregationMethod dense_aggregation,
                                AggregationMethod sparse_aggregation, float learning_rate) {
  const int num_ranks = static_cast<int>(per_rank.size());
  const float scale = 1.0f / static_cast<float>(num_ranks);
  RowPartition partition(value.shape().dim(0), partitions);
  std::vector<Tensor> pieces = SplitRowsByPartition(value, partition);
  if (per_rank.front().grads.at(variable).is_sparse()) {
    std::vector<IndexedSlices> machines;
    for (int base = 0; base < num_ranks; base += ranks_per_machine) {
      std::vector<IndexedSlices> local;
      for (int r = base; r < base + ranks_per_machine; ++r) {
        local.push_back(per_rank[static_cast<size_t>(r)].grads.at(variable).sparse());
      }
      machines.push_back(local.size() == 1 ? local.front() : NaiveSum(local));
    }
    IndexedSlices aggregated = NaiveSum(machines);
    if (sparse_aggregation == AggregationMethod::kAverage) {
      aggregated.Scale(scale);
    }
    std::vector<IndexedSlices> grad_pieces = NaiveSplit(aggregated, partition);
    for (size_t p = 0; p < pieces.size(); ++p) {
      NaiveScatterSgd(pieces[p], grad_pieces[p], learning_rate);
    }
  } else {
    std::vector<Tensor> machines;
    for (int base = 0; base < num_ranks; base += ranks_per_machine) {
      std::vector<Tensor> local;
      for (int r = base; r < base + ranks_per_machine; ++r) {
        local.push_back(per_rank[static_cast<size_t>(r)].grads.at(variable).dense());
      }
      machines.push_back(NaiveAllReduceSum(local));
    }
    Tensor aggregated = NaiveAllReduceSum(machines);
    if (dense_aggregation == AggregationMethod::kAverage) {
      ScaleInPlace(aggregated, scale);
    }
    std::vector<Tensor> grad_pieces = SplitRowsByPartition(aggregated, partition);
    for (size_t p = 0; p < pieces.size(); ++p) {
      AxpyInPlace(pieces[p], -learning_rate, grad_pieces[p]);
    }
  }
  value = StitchPartitions(pieces, partition);
}

}  // namespace parallax

#endif  // PARALLAX_TESTS_NAIVE_REFERENCE_H_
