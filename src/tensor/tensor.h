#ifndef ERRORFLOW_TENSOR_TENSOR_H_
#define ERRORFLOW_TENSOR_TENSOR_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/macros.h"
#include "util/result.h"

namespace errorflow {
namespace tensor {

/// \brief Shape of a dense tensor; up to 4 dimensions are used in practice
/// (N, C, H, W for images; N, F for tabular data).
using Shape = std::vector<int64_t>;

/// Number of elements in a shape (product of dimensions; 1 for scalars).
int64_t NumElements(const Shape& shape);

/// Renders a shape as "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// \brief Dense, row-major, contiguous float32 tensor.
///
/// This is the single numeric container used throughout the library: network
/// activations, weights, compressed-field inputs, and dataset batches are all
/// `Tensor`s. Element type is float (FP32) — the "full precision" baseline of
/// the paper; reduced-precision values are *representable subsets* of FP32
/// produced by `quant::` rounding, so they live in the same container.
class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills from `values`; `values.size()` must match shape.
  Tensor(Shape shape, std::vector<float> values);

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }

  const Shape& shape() const { return shape_; }
  /// shape() == dims without building a Shape, so a layer's steady-state
  /// output check allocates nothing.
  bool HasShape(std::initializer_list<int64_t> dims) const {
    return std::equal(shape_.begin(), shape_.end(), dims.begin(), dims.end());
  }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int i) const { return shape_[static_cast<size_t>(i)]; }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// 2-D element access; tensor must be rank 2.
  float& at(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  /// 4-D element access (N, C, H, W); tensor must be rank 4.
  float& at4(int64_t n, int64_t c, int64_t h, int64_t w) {
    return data_[static_cast<size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  float at4(int64_t n, int64_t c, int64_t h, int64_t w) const {
    return data_[static_cast<size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  /// Underlying storage (for serialization).
  const std::vector<float>& values() const { return data_; }
  std::vector<float>& values() { return data_; }

  /// Fills every element with `value`.
  void Fill(float value);

  /// Byte size of the payload (size() * sizeof(float)).
  int64_t byte_size() const {
    return size() * static_cast<int64_t>(sizeof(float));
  }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace tensor
}  // namespace errorflow

#endif  // ERRORFLOW_TENSOR_TENSOR_H_
