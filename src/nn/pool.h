#ifndef ERRORFLOW_NN_POOL_H_
#define ERRORFLOW_NN_POOL_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace errorflow {
namespace nn {

/// \brief Global average pooling: (N, C, H, W) -> (N, C).
///
/// Averaging is a linear contraction (operator norm <= 1), so it never
/// amplifies propagated error: the error-flow profiler treats it as a
/// gain-1 pass-through, which is conservative.
class GlobalAvgPoolLayer : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kGlobalAvgPool; }
  std::string ToString() const override { return "GlobalAvgPool"; }
  void Forward(const Tensor& input, Tensor* output, bool training) override;
  void Backward(const Tensor& grad_output, Tensor* grad_input) override;
  std::unique_ptr<Layer> Clone() const override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  Shape cached_input_shape_;
};

}  // namespace nn
}  // namespace errorflow

#endif  // ERRORFLOW_NN_POOL_H_
