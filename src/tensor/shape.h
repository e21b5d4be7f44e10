// TensorShape: dimension list with the usual conveniences. Row-major layout throughout.
#ifndef PARALLAX_SRC_TENSOR_SHAPE_H_
#define PARALLAX_SRC_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace parallax {

class TensorShape {
 public:
  TensorShape() = default;
  TensorShape(std::initializer_list<int64_t> dims) : dims_(dims) {}
  explicit TensorShape(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const;
  const std::vector<int64_t>& dims() const { return dims_; }

  // Product of all dimensions; 1 for a scalar (rank 0).
  int64_t num_elements() const;

  // Product of dimensions [1, rank); the size of one "row" for 2-D-style access.
  // Requires rank >= 1.
  int64_t row_elements() const;

  // Returns a copy with dim(0) replaced. Requires rank >= 1.
  TensorShape WithDim0(int64_t new_dim0) const;
  // Replaces dim(0) in place. Requires rank >= 1.
  void SetDim0(int64_t new_dim0);

  bool operator==(const TensorShape& other) const { return dims_ == other.dims_; }
  bool operator!=(const TensorShape& other) const { return dims_ != other.dims_; }

  std::string ToString() const;

 private:
  std::vector<int64_t> dims_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_TENSOR_SHAPE_H_
