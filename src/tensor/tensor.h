// Dense tensor with shared (copy-on-nothing) storage.
//
// Two element types are supported: Float32 for model parameters/activations/gradients and
// Int64 for index data (token ids, gather indices) — mirroring the split TensorFlow makes
// between value tensors and index tensors. Math kernels (tensor_ops.h) operate on Float32;
// Int64 tensors flow through the graph as inputs to Gather-style ops.
//
// Copying a Tensor shares the underlying buffer (cheap, like TF). Mutating accessors
// require the caller to hold a uniquely-owned tensor or accept aliasing; library code that
// updates variables in place does so deliberately. A graph's initial values are shared,
// never written: the sampling passes read them in place, and each numeric engine copies
// a variable at its first write to it (VariableStore::ShareFrom, graph/executor.h).
//
// Every float buffer starts on a 64-byte boundary (kTensorAlignment): a cache line, and
// one AVX-512 register, so where a kernel's rows split across cache lines does not
// depend on where the allocator happened to place a tensor.
#ifndef PARALLAX_SRC_TENSOR_TENSOR_H_
#define PARALLAX_SRC_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/tensor/shape.h"

namespace parallax {

enum class DataType : int {
  kFloat32 = 0,
  kInt64 = 1,
};

size_t DataTypeSize(DataType dtype);
const char* DataTypeName(DataType dtype);

// Alignment of every Tensor float buffer, in bytes.
inline constexpr size_t kTensorAlignment = 64;

// The allocator of Tensor's float storage: each buffer comes from
// ::operator new(bytes, std::align_val_t{kTensorAlignment}).
template <typename T>
class CacheLineAllocator {
 public:
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kTensorAlignment}));
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kTensorAlignment});
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

class Tensor {
 public:
  // Default: empty float tensor of shape [0].
  Tensor() : Tensor(DataType::kFloat32, TensorShape({0})) {}

  // Allocates zero-initialized storage of the given shape.
  Tensor(DataType dtype, TensorShape shape);

  static Tensor Zeros(TensorShape shape) { return Tensor(DataType::kFloat32, std::move(shape)); }
  static Tensor Filled(TensorShape shape, float value);
  // Copies `values` into aligned storage.
  static Tensor FromVector(const std::vector<float>& values, TensorShape shape);
  static Tensor FromIndices(std::vector<int64_t> values, TensorShape shape);
  static Tensor Scalar(float value) { return Filled(TensorShape({}), value); }

  DataType dtype() const { return dtype_; }
  const TensorShape& shape() const { return shape_; }
  int64_t num_elements() const { return shape_.num_elements(); }

  bool is_float() const { return dtype_ == DataType::kFloat32; }
  bool is_int() const { return dtype_ == DataType::kInt64; }

  std::span<const float> floats() const;
  std::span<float> mutable_floats();
  std::span<const int64_t> ints() const;
  std::span<int64_t> mutable_ints();

  float at(int64_t index) const;

  // Deep copy (new buffer).
  Tensor Clone() const;

  // Sets dim 0 of a uniquely owned float tensor to `rows` in place. The buffer keeps its
  // capacity, so a tensor whose row count shrinks and grows back within its largest
  // size allocates nothing. Rows past the old count read zero.
  void ResizeRows(int64_t rows);

  // True if both tensors view the same buffer.
  bool SharesBufferWith(const Tensor& other) const;

  // True when no other Tensor shares this buffer — the condition under which the
  // destination-passing kernels (tensor_ops.h, *Into) may overwrite it in place.
  bool UniquelyOwned() const {
    return (float_data_ == nullptr || float_data_.use_count() == 1) &&
           (int_data_ == nullptr || int_data_.use_count() == 1);
  }

  // Frobenius-style reductions over Float32 data.
  double Sum() const;
  double L2Norm() const;

  std::string DebugString(int64_t max_entries = 8) const;

 private:
  using FloatStorage = std::vector<float, CacheLineAllocator<float>>;

  DataType dtype_;
  TensorShape shape_;
  std::shared_ptr<FloatStorage> float_data_;
  std::shared_ptr<std::vector<int64_t>> int_data_;
};

}  // namespace parallax

#endif  // PARALLAX_SRC_TENSOR_TENSOR_H_
