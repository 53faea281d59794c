#ifndef ERRORFLOW_NN_ACTIVATION_H_
#define ERRORFLOW_NN_ACTIVATION_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace errorflow {
namespace nn {

/// \brief Supported nonlinearities.
///
/// Contract: every kind has first derivative globally bounded by 1 (the
/// constant C of Sec. III-A), so the error-flow analysis carries no
/// per-activation gain. PReLU keeps its learnable slope clamped to [0, 1]
/// for the same reason. A new kind must keep |phi'| <= 1; DerivativeBoundTest
/// checks every kind.
///
/// The values are the model file's activation byte (docs/FORMATS.md); 1, 4
/// and 5 are retired kinds and load as Corruption.
enum class ActivationKind {
  kReLU = 0,
  kPReLU = 2,
  kTanh = 3,
};

const char* ActivationKindToString(ActivationKind kind);

/// \brief Elementwise activation layer.
///
/// PReLU carries one learnable slope shared across the layer (clamped to
/// [0,1] after each optimizer step by the trainer so that C = 1 holds).
class ActivationLayer : public Layer {
 public:
  /// `leaky_slope` is PReLU's initial slope; other kinds ignore it.
  explicit ActivationLayer(ActivationKind kind, float leaky_slope = 0.01f);

  LayerKind kind() const override { return LayerKind::kActivation; }
  ActivationKind activation_kind() const { return kind_; }
  std::string ToString() const override;

  void Forward(const Tensor& input, Tensor* output, bool training) override;
  void Backward(const Tensor& grad_output, Tensor* grad_input) override;
  std::vector<Param> Params() override;
  std::unique_ptr<Layer> Clone() const override;
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

  /// Learnable PReLU slope.
  float slope() const { return slope_[0]; }
  /// Clamps the PReLU slope into [0, 1]; called by the trainer after steps.
  void ClampSlope();

 private:
  ActivationKind kind_;
  Tensor slope_;       // 1-element tensor (PReLU's learnable slope).
  Tensor slope_grad_;  // gradient accumulator for PReLU.
  Tensor cached_input_;
};

}  // namespace nn
}  // namespace errorflow

#endif  // ERRORFLOW_NN_ACTIVATION_H_
