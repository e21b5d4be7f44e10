// Row-range partitioning of variables — TensorFlow's fixed_size_partitioner semantics,
// which is what Parallax's partitioner() scope tunes (paper sections 3.2, 4.1).
//
// A variable with R rows split P ways gives the first R % P pieces ceil(R/P) rows and the
// rest floor(R/P). The PS engine routes each aggregated sparse row to its piece by row id
// (PartitionOfRow) at the piece-local row (row - RowBegin); pulls are reassembled
// ("stitched") by the inverse mapping.
#ifndef PARALLAX_SRC_PS_PARTITION_H_
#define PARALLAX_SRC_PS_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace parallax {

class RowPartition {
 public:
  RowPartition(int64_t num_rows, int num_partitions);

  int num_partitions() const { return num_partitions_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t RowBegin(int partition) const;
  int64_t RowsIn(int partition) const { return RowBegin(partition + 1) - RowBegin(partition); }
  int PartitionOfRow(int64_t row) const;

 private:
  int64_t num_rows_;
  int num_partitions_;
  int64_t base_rows_;   // floor(num_rows / num_partitions)
  int64_t remainder_;   // num_rows % num_partitions
};

// Splits a dense tensor into per-piece row blocks.
std::vector<Tensor> SplitRowsByPartition(const Tensor& value, const RowPartition& partition);

// Inverse of SplitRowsByPartition: stitches pieces back into the full tensor.
Tensor StitchPartitions(const std::vector<Tensor>& pieces, const RowPartition& partition);

}  // namespace parallax

#endif  // PARALLAX_SRC_PS_PARTITION_H_
