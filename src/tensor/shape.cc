#include "src/tensor/shape.h"

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace parallax {

int64_t TensorShape::dim(int i) const {
  PX_CHECK_GE(i, 0);
  PX_CHECK_LT(i, rank());
  return dims_[static_cast<size_t>(i)];
}

int64_t TensorShape::num_elements() const {
  int64_t count = 1;
  for (int64_t d : dims_) {
    count *= d;
  }
  return count;
}

int64_t TensorShape::row_elements() const {
  PX_CHECK_GE(rank(), 1);
  int64_t count = 1;
  for (size_t i = 1; i < dims_.size(); ++i) {
    count *= dims_[i];
  }
  return count;
}

TensorShape TensorShape::WithDim0(int64_t new_dim0) const {
  PX_CHECK_GE(rank(), 1);
  std::vector<int64_t> dims = dims_;
  dims[0] = new_dim0;
  return TensorShape(std::move(dims));
}

void TensorShape::SetDim0(int64_t new_dim0) {
  PX_CHECK_GE(rank(), 1);
  dims_[0] = new_dim0;
}

std::string TensorShape::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += StrFormat("%lld", static_cast<long long>(dims_[i]));
  }
  out += "]";
  return out;
}

}  // namespace parallax
