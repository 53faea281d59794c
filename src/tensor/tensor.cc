#include "tensor/tensor.h"

#include <algorithm>

namespace errorflow {
namespace tensor {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(NumElements(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  EF_CHECK(static_cast<int64_t>(data_.size()) == NumElements(shape_));
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace tensor
}  // namespace errorflow
