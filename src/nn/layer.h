#ifndef ERRORFLOW_NN_LAYER_H_
#define ERRORFLOW_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace errorflow {
namespace nn {

using tensor::Shape;
using tensor::Tensor;

/// \brief A trainable parameter: value and accumulated gradient, both owned
/// by the layer. Optimizers mutate `value` through this view.
struct Param {
  /// Stable identifier within the layer, e.g. "weight", "bias", "alpha".
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  /// When false the optimizer must not apply L2 weight decay (biases,
  /// PSN scales). Matches standard practice.
  bool decay = true;
};

/// \brief Coarse layer taxonomy used by the model walker (serialization,
/// quantization, and error-flow profiling all dispatch on this).
enum class LayerKind {
  kDense,
  kConv2d,
  kActivation,
  kResidualBlock,
  kGlobalAvgPool,
};

/// \brief Base class for all network layers.
///
/// Layers own their parameters and any state cached between Forward and
/// Backward. Forward/Backward operate on whole batches: rank-2 tensors
/// (batch, features) for tabular layers, rank-4 (batch, C, H, W) for
/// convolutional layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Layer kind for structural walks.
  virtual LayerKind kind() const = 0;

  /// Human-readable description, e.g. "Dense(9 -> 50)".
  virtual std::string ToString() const = 0;

  /// Computes the layer output. When `training` is true, caches whatever is
  /// needed by the subsequent Backward call.
  virtual void Forward(const Tensor& input, Tensor* output,
                       bool training) = 0;

  /// Given the loss gradient w.r.t. this layer's output, accumulates
  /// parameter gradients and writes the gradient w.r.t. the input.
  /// Must be preceded by Forward(..., training=true) on the same batch.
  virtual void Backward(const Tensor& grad_output, Tensor* grad_input) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param> Params() { return {}; }

  /// Zeroes all parameter gradients.
  void ZeroGrads() {
    for (Param& p : Params()) {
      if (p.grad != nullptr) p.grad->Fill(0.0f);
    }
  }

  /// Deep copy (weights included, caches excluded).
  virtual std::unique_ptr<Layer> Clone() const = 0;

  /// Shape of the output for a given input shape (batch dim excluded from
  /// consideration: pass and receive full shapes including batch).
  virtual Shape OutputShape(const Shape& input_shape) const = 0;
};

}  // namespace nn
}  // namespace errorflow

#endif  // ERRORFLOW_NN_LAYER_H_
