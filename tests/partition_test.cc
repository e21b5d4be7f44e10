#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/ps/partition.h"
#include "src/ps/ps_numeric.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {
namespace {

// Property sweep over (rows, partitions) shapes, including non-divisible splits.
class RowPartitionParamTest
    : public ::testing::TestWithParam<std::pair<int64_t, int>> {};

TEST_P(RowPartitionParamTest, PiecesCoverAllRowsExactly) {
  auto [rows, parts] = GetParam();
  RowPartition partition(rows, parts);
  int64_t total = 0;
  for (int p = 0; p < parts; ++p) {
    EXPECT_GE(partition.RowsIn(p), rows / parts);
    EXPECT_LE(partition.RowsIn(p), rows / parts + 1);
    total += partition.RowsIn(p);
  }
  EXPECT_EQ(total, rows);
  EXPECT_EQ(partition.RowBegin(0), 0);
  EXPECT_EQ(partition.RowBegin(parts), rows);
}

TEST_P(RowPartitionParamTest, PartitionOfRowIsConsistentWithRanges) {
  auto [rows, parts] = GetParam();
  RowPartition partition(rows, parts);
  for (int64_t row = 0; row < rows; ++row) {
    int p = partition.PartitionOfRow(row);
    EXPECT_GE(row, partition.RowBegin(p));
    EXPECT_LT(row, partition.RowBegin(p + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RowPartitionParamTest,
                         ::testing::Values(std::make_pair(int64_t{10}, 1),
                                           std::make_pair(int64_t{10}, 3),
                                           std::make_pair(int64_t{10}, 10),
                                           std::make_pair(int64_t{97}, 8),
                                           std::make_pair(int64_t{128}, 128),
                                           std::make_pair(int64_t{1000}, 7)));

TEST(RowPartitionTest, RejectsMorePartitionsThanRows) {
  EXPECT_DEATH(RowPartition(4, 5), "more partitions than rows");
}

TEST(PartitionTest, SplitStitchRoundTrip) {
  Rng rng(31);
  Tensor value = RandomNormal(TensorShape({23, 5}), rng);
  RowPartition partition(23, 4);
  std::vector<Tensor> pieces = SplitRowsByPartition(value, partition);
  EXPECT_TRUE(AllClose(StitchPartitions(pieces, partition), value, 0.0f));
}

// The PS engine splits a sparse gradient across a variable's pieces row by row: the
// fused step hands each aggregated row to PsVariable::MutableRow, which resolves the
// row's piece (PartitionOfRow) and its piece-local row (row - RowBegin).

TEST(PartitionTest, SplitSlicesRoutesRowsAndReindexes) {
  // Variable of 10 rows split 2 ways: rows 0-4 -> piece 0, rows 5-9 -> piece 1.
  RowPartition partition(10, 2);
  PsVariable variable(Tensor::Zeros(TensorShape({10, 2})), 2);
  const std::vector<int64_t> rows = {1, 7, 4, 5};
  const std::vector<int> want_piece = {0, 1, 0, 1};
  const std::vector<int64_t> want_local = {1, 2, 4, 0};  // global row 7 -> 7 - 5, ...
  for (size_t i = 0; i < rows.size(); ++i) {
    const int piece = partition.PartitionOfRow(rows[i]);
    EXPECT_EQ(piece, want_piece[i]);
    EXPECT_EQ(rows[i] - partition.RowBegin(piece), want_local[i]);
    // The storage row sits want_local rows past the first row of its piece.
    EXPECT_EQ(variable.MutableRow(rows[i]),
              variable.MutableRow(partition.RowBegin(piece)) + want_local[i] * 2);
  }
}

TEST(PartitionTest, SplitSlicesPreservesDenseEquivalent) {
  Rng rng(32);
  std::vector<int64_t> indices;
  for (int i = 0; i < 40; ++i) {
    indices.push_back(static_cast<int64_t>(rng.NextBounded(17)));
  }
  IndexedSlices slices(indices, RandomNormal(TensorShape({40, 3}), rng),
                       TensorShape({17, 3}));
  // Route every row, duplicates included, into a zero variable split 5 ways.
  PsVariable variable(Tensor::Zeros(TensorShape({17, 3})), 5);
  auto values = slices.values().floats();
  for (size_t i = 0; i < indices.size(); ++i) {
    float* dst = variable.MutableRow(indices[i]);
    for (size_t j = 0; j < 3; ++j) {
      dst[j] += values[i * 3 + j];
    }
  }
  EXPECT_TRUE(AllClose(variable.Materialize(), slices.ToDense(), 0.0f));
}

TEST(PartitionTest, EmptyPiecesAreRepresented) {
  // A gradient touching only piece 0 leaves the other pieces present and untouched.
  PsVariable variable(Tensor::Zeros(TensorShape({9, 2})), 3);
  float* dst = variable.MutableRow(0);
  dst[0] += 1.0f;
  dst[1] += 2.0f;
  EXPECT_EQ(variable.num_partitions(), 3);
  Tensor value = variable.Materialize();
  ASSERT_EQ(value.shape().dim(0), 9);
  EXPECT_EQ(value.floats()[0], 1.0f);
  EXPECT_EQ(value.floats()[1], 2.0f);
  for (size_t i = 2; i < value.floats().size(); ++i) {
    EXPECT_EQ(value.floats()[i], 0.0f) << "element " << i;
  }
}

}  // namespace
}  // namespace parallax
