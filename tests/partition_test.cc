// Row-range partitioning as the PS oracle splits a variable (RowPartition in
// tests/naive_reference.h): the pieces tile the rows, every row maps to the piece that
// covers it, and a split stitches back to the original.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/tensor/tensor_ops.h"
#include "tests/naive_reference.h"

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

}  // namespace
}  // namespace parallax
