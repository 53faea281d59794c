#ifndef ERRORFLOW_QUANT_OPTQ_H_
#define ERRORFLOW_QUANT_OPTQ_H_

#include <cstdint>
#include <memory>

#include "nn/model.h"
#include "quant/format.h"
#include "quant/quantize_model.h"
#include "tensor/tensor.h"

namespace errorflow {
namespace quant {

/// \brief OPTQ-style greedy error-feedback INT8 weight quantization
/// (Frantar et al.; SPFQ's stochastic variant under kSpfq) — the
/// data-driven kernel quant::Materialize applies per layer.
///
/// Construction runs one forward pass of `model` on `calibration` — a
/// batch shaped like the model input — capturing each Dense/Conv layer's
/// input Gram H = X X^T through the nn::CalibrationObserver hook (conv
/// layers contribute their im2col column matrix, so the Gram basis is
/// exactly what the kernel GEMM consumes). QuantizeLayer then quantizes a
/// weight matrix W (out, d) column by column with per-output-channel
/// affine scales (row range / 255): after rounding column j, the residual
/// (w_j - q_j) is propagated into the not-yet-quantized columns through
/// the upper Cholesky factor of H^-1, the closed-form least-squares update
/// that minimizes the calibration-output error || (W - What) X ||.
///
/// kOptq rounds to nearest; kSpfq rounds stochastically with probability
/// proportional to the fractional part (deterministic under a fixed seed).
/// An empty calibration (or a layer the forward pass never reaches)
/// degrades that layer to an identity Gram — plain per-channel nearest
/// rounding.
class OptqCalibration {
 public:
  /// `model` must be the PSN-folded clone whose layers QuantizeLayer will
  /// be handed: the Grams are keyed by layer address.
  OptqCalibration(nn::Model* model, const tensor::Tensor& calibration);
  ~OptqCalibration();

  /// Quantizes `layer`'s weight matrix `w` in place and fills the
  /// record's steps, perturbation and calibration statistics. `index` is
  /// the layer's traversal index; it seeds SPFQ rounding, so every
  /// materialization reproduces the same weights layer by layer.
  void QuantizeLayer(const nn::Layer* layer, int64_t index,
                     WeightQuantizer quantizer, tensor::Tensor* w,
                     LayerQuantRecord* rec) const;

 private:
  class Grams;
  std::unique_ptr<Grams> grams_;
};

}  // namespace quant
}  // namespace errorflow

#endif  // ERRORFLOW_QUANT_OPTQ_H_
