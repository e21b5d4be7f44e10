#include "src/ps/partition.h"

#include "src/base/logging.h"
#include "src/base/math.h"
#include "src/tensor/tensor_ops.h"

namespace parallax {

RowPartition::RowPartition(int64_t num_rows, int num_partitions)
    : num_rows_(num_rows), num_partitions_(num_partitions) {
  PX_CHECK_GT(num_rows, 0);
  PX_CHECK_GT(num_partitions, 0);
  PX_CHECK_LE(static_cast<int64_t>(num_partitions), num_rows)
      << "more partitions than rows";
  base_rows_ = num_rows / num_partitions;
  remainder_ = num_rows % num_partitions;
}

int64_t RowPartition::RowBegin(int partition) const {
  PX_CHECK_GE(partition, 0);
  PX_CHECK_LE(partition, num_partitions_);
  // Balanced split: first `remainder_` pieces hold base+1 rows — the same convention
  // (and the same base/math.h formula) the ring collectives use to chunk a gradient.
  return BalancedSplitBegin(num_rows_, num_partitions_, partition);
}

int RowPartition::PartitionOfRow(int64_t row) const {
  PX_CHECK_GE(row, 0);
  PX_CHECK_LT(row, num_rows_);
  // Rows [0, remainder*(base+1)) live in the larger pieces.
  int64_t large_span = remainder_ * (base_rows_ + 1);
  if (row < large_span) {
    return static_cast<int>(row / (base_rows_ + 1));
  }
  return static_cast<int>(remainder_ + (row - large_span) / base_rows_);
}

std::vector<Tensor> SplitRowsByPartition(const Tensor& value, const RowPartition& partition) {
  std::vector<Tensor> pieces;
  pieces.reserve(static_cast<size_t>(partition.num_partitions()));
  for (int p = 0; p < partition.num_partitions(); ++p) {
    pieces.push_back(SliceRows(value, partition.RowBegin(p), partition.RowBegin(p + 1)));
  }
  return pieces;
}

Tensor StitchPartitions(const std::vector<Tensor>& pieces, const RowPartition& partition) {
  PX_CHECK_EQ(static_cast<int>(pieces.size()), partition.num_partitions());
  Tensor full = ConcatRows(pieces);
  PX_CHECK_EQ(full.shape().dim(0), partition.num_rows());
  return full;
}

}  // namespace parallax
