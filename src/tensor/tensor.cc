#include "src/tensor/tensor.h"

#include <cmath>

#include "src/base/strings.h"

namespace parallax {

size_t DataTypeSize(DataType dtype) {
  switch (dtype) {
    case DataType::kFloat32:
      return 4;
    case DataType::kInt64:
      return 8;
  }
  return 0;
}

const char* DataTypeName(DataType dtype) {
  switch (dtype) {
    case DataType::kFloat32:
      return "float32";
    case DataType::kInt64:
      return "int64";
  }
  return "unknown";
}

Tensor::Tensor(DataType dtype, TensorShape shape) : dtype_(dtype), shape_(std::move(shape)) {
  size_t count = static_cast<size_t>(shape_.num_elements());
  if (dtype_ == DataType::kFloat32) {
    float_data_ = std::make_shared<FloatStorage>(count, 0.0f);
  } else {
    int_data_ = std::make_shared<std::vector<int64_t>>(count, 0);
  }
}

Tensor Tensor::Filled(TensorShape shape, float value) {
  Tensor t(DataType::kFloat32, std::move(shape));
  for (float& x : t.mutable_floats()) {
    x = value;
  }
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& values, TensorShape shape) {
  PX_CHECK_EQ(static_cast<int64_t>(values.size()), shape.num_elements());
  Tensor t;
  t.dtype_ = DataType::kFloat32;
  t.shape_ = std::move(shape);
  t.float_data_ = std::make_shared<FloatStorage>(values.begin(), values.end());
  return t;
}

Tensor Tensor::FromIndices(std::vector<int64_t> values, TensorShape shape) {
  PX_CHECK_EQ(static_cast<int64_t>(values.size()), shape.num_elements());
  Tensor t;
  t.dtype_ = DataType::kInt64;
  t.shape_ = std::move(shape);
  t.int_data_ = std::make_shared<std::vector<int64_t>>(std::move(values));
  return t;
}

std::span<const float> Tensor::floats() const {
  PX_CHECK(is_float()) << "expected float tensor, got " << DataTypeName(dtype_);
  return {float_data_->data(), float_data_->size()};
}

std::span<float> Tensor::mutable_floats() {
  PX_CHECK(is_float()) << "expected float tensor, got " << DataTypeName(dtype_);
  return {float_data_->data(), float_data_->size()};
}

std::span<const int64_t> Tensor::ints() const {
  PX_CHECK(is_int()) << "expected int64 tensor, got " << DataTypeName(dtype_);
  return {int_data_->data(), int_data_->size()};
}

std::span<int64_t> Tensor::mutable_ints() {
  PX_CHECK(is_int()) << "expected int64 tensor, got " << DataTypeName(dtype_);
  return {int_data_->data(), int_data_->size()};
}

float Tensor::at(int64_t index) const {
  PX_CHECK_GE(index, 0);
  PX_CHECK_LT(index, num_elements());
  return floats()[static_cast<size_t>(index)];
}

Tensor Tensor::Clone() const {
  Tensor copy;
  copy.dtype_ = dtype_;
  copy.shape_ = shape_;
  if (is_float()) {
    copy.float_data_ = std::make_shared<FloatStorage>(*float_data_);
  } else {
    copy.int_data_ = std::make_shared<std::vector<int64_t>>(*int_data_);
  }
  return copy;
}

void Tensor::ResizeRows(int64_t rows) {
  PX_CHECK(is_float() && UniquelyOwned());
  shape_.SetDim0(rows);
  float_data_->resize(static_cast<size_t>(shape_.num_elements()));
}

bool Tensor::SharesBufferWith(const Tensor& other) const {
  return (float_data_ != nullptr && float_data_ == other.float_data_) ||
         (int_data_ != nullptr && int_data_ == other.int_data_);
}

double Tensor::Sum() const {
  double sum = 0.0;
  for (float v : floats()) {
    sum += v;
  }
  return sum;
}

double Tensor::L2Norm() const {
  double sum = 0.0;
  for (float v : floats()) {
    sum += static_cast<double>(v) * v;
  }
  return std::sqrt(sum);
}

std::string Tensor::DebugString(int64_t max_entries) const {
  std::string out =
      StrFormat("Tensor<%s %s>[", DataTypeName(dtype_), shape_.ToString().c_str());
  int64_t shown = std::min<int64_t>(max_entries, num_elements());
  for (int64_t i = 0; i < shown; ++i) {
    if (i > 0) {
      out += ", ";
    }
    if (is_float()) {
      out += StrFormat("%g", floats()[static_cast<size_t>(i)]);
    } else {
      out += StrFormat("%lld", static_cast<long long>(ints()[static_cast<size_t>(i)]));
    }
  }
  if (shown < num_elements()) {
    out += ", ...";
  }
  out += "]";
  return out;
}

}  // namespace parallax
