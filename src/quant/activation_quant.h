#ifndef ERRORFLOW_QUANT_ACTIVATION_QUANT_H_
#define ERRORFLOW_QUANT_ACTIVATION_QUANT_H_

#include "nn/model.h"
#include "quant/format.h"

namespace errorflow {
namespace quant {

/// \brief Inference with quantized activations (Sec. III-B: "the error
/// introduced by activation quantization can be addressed similarly to
/// compression error ... excluding all layers preceding the affected
/// activation").
///
/// Runs the model layer by layer and rounds the output of every top-level
/// Dense / Conv2d / ResidualBlock to `format` (float formats: bit-exact
/// mantissa rounding; INT8: per-tensor max-calibrated affine), emulating a
/// pipeline whose intermediate tensors live in the reduced format. Weights
/// should already be quantized (e.g. via Materialize) if weight
/// quantization is also desired.
///
/// The matching bound is `core::ErrorFlowAnalysis::
/// QuantTermWithActivations`, which injects an activation-rounding error
/// at exactly these points.
tensor::Tensor PredictWithQuantizedActivations(nn::Model* model,
                                               const tensor::Tensor& input,
                                               NumericFormat format);

}  // namespace quant
}  // namespace errorflow

#endif  // ERRORFLOW_QUANT_ACTIVATION_QUANT_H_
