#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/rng.h"
#include "src/tensor/indexed_slices.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

IndexedSlices RandomSlices(Rng& rng, int64_t rows, int64_t width, int64_t nnz) {
  std::vector<int64_t> indices;
  indices.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) {
    indices.push_back(static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(rows))));
  }
  return IndexedSlices(std::move(indices), RandomNormal(TensorShape({nnz, width}), rng),
                       TensorShape({rows, width}));
}

TEST(IndexedSlicesTest, ToDenseAccumulatesDuplicates) {
  IndexedSlices s({1, 1}, Tensor::FromVector({1, 2, 10, 20}, TensorShape({2, 2})),
                  TensorShape({3, 2}));
  Tensor dense = s.ToDense();
  EXPECT_EQ(dense.at(2), 11.0f);
  EXPECT_EQ(dense.at(3), 22.0f);
  EXPECT_EQ(dense.at(0), 0.0f);
}

// `parts` summed on a slot table from +0, as dense; `distinct_rows` gets the row count.
Tensor SlotSumToDense(const std::vector<IndexedSlices>& parts,
                      int64_t* distinct_rows = nullptr) {
  const TensorShape& shape = parts.front().dense_shape();
  std::vector<int32_t> table(static_cast<size_t>(shape.dim(0)), -1);
  RowSlotSum sum;
  sum.Begin(table, shape.row_elements(), shape.dim(0), RowSlotSum::Start::kFromZero);
  for (const IndexedSlices& part : parts) {
    sum.Add(part);
  }
  sum.End();
  Tensor dense = Tensor::Zeros(shape);
  for (int64_t s = 0; s < sum.size(); ++s) {
    std::copy_n(sum.sum(s), shape.row_elements(),
                dense.mutable_floats().data() + sum.row(s) * shape.row_elements());
  }
  if (distinct_rows != nullptr) {
    *distinct_rows = sum.size();
  }
  return dense;
}

TEST(IndexedSlicesTest, CoalescedPreservesDenseEquivalent) {
  // A slot sum over one input coalesces that input.
  Rng rng(11);
  IndexedSlices s = RandomSlices(rng, 20, 4, 50);
  int64_t distinct_rows = 0;
  Tensor coalesced = SlotSumToDense({s}, &distinct_rows);
  EXPECT_LE(distinct_rows, s.nnz_rows());
  EXPECT_EQ(distinct_rows, s.unique_rows());
  EXPECT_TRUE(AllClose(coalesced, s.ToDense(), 1e-5f));
}

TEST(IndexedSlicesTest, SumEqualsDenseSum) {
  Rng rng(12);
  std::vector<IndexedSlices> parts;
  Tensor expected = Tensor::Zeros(TensorShape({15, 3}));
  for (int i = 0; i < 5; ++i) {
    parts.push_back(RandomSlices(rng, 15, 3, 8));
    AddInPlace(expected, parts.back().ToDense());
  }
  EXPECT_TRUE(AllClose(SlotSumToDense(parts), expected, 1e-4f));
}

TEST(IndexedSlicesTest, ConcatKeepsAllRows) {
  Rng rng(13);
  IndexedSlices a = RandomSlices(rng, 10, 2, 4);
  IndexedSlices b = RandomSlices(rng, 10, 2, 6);
  IndexedSlices c = IndexedSlices::Concat({a, b});
  EXPECT_EQ(c.nnz_rows(), 10);
  // AllGatherv semantics: concatenation preserves the dense-equivalent sum.
  Tensor expected = a.ToDense();
  AddInPlace(expected, b.ToDense());
  EXPECT_TRUE(AllClose(c.ToDense(), expected, 1e-5f));
}

TEST(IndexedSlicesTest, ScaleScalesDense) {
  Rng rng(14);
  IndexedSlices s = RandomSlices(rng, 12, 3, 7);
  Tensor before = s.ToDense();
  s.Scale(0.25f);
  EXPECT_TRUE(AllClose(s.ToDense(), Scale(before, 0.25f), 1e-6f));
}

TEST(IndexedSlicesTest, AccessRatioCountsUniqueRows) {
  IndexedSlices s({0, 0, 3}, Tensor::Zeros(TensorShape({3, 2})), TensorShape({10, 2}));
  EXPECT_DOUBLE_EQ(s.AccessRatio(), 0.2);
}

TEST(IndexedSlicesTest, WireBytesCountsValuesAndIndices) {
  IndexedSlices s({0, 1}, Tensor::Zeros(TensorShape({2, 8})), TensorShape({4, 8}));
  EXPECT_EQ(s.WireBytes(), 2 * 8 * 4 + 2 * 8);
}

TEST(IndexedSlicesTest, RejectsOutOfRangeIndices) {
  EXPECT_DEATH(IndexedSlices({5}, Tensor::Zeros(TensorShape({1, 2})), TensorShape({4, 2})),
               "Check failed");
}

TEST(IndexedSlicesTest, RejectsShapeMismatch) {
  EXPECT_DEATH(IndexedSlices({0}, Tensor::Zeros(TensorShape({1, 3})), TensorShape({4, 2})),
               "Check failed");
}

}  // namespace
}  // namespace parallax
