#ifndef ERRORFLOW_QUANT_QUANTIZE_MODEL_H_
#define ERRORFLOW_QUANT_QUANTIZE_MODEL_H_

#include <string>
#include <vector>

#include "nn/model.h"
#include "quant/format.h"
#include "tensor/tensor.h"

namespace errorflow {
namespace quant {

/// \brief Per-layer record of one materialization, in the traversal order
/// of core::ErrorFlowAnalysis's steps vectors (plain chains in network
/// order; residual bodies first, then the projection shortcut).
struct LayerQuantRecord {
  std::string layer;
  NumericFormat format = NumericFormat::kFP32;
  int64_t rows = 0;  ///< Output channels (weight matrix rows).
  int64_t cols = 0;  ///< Input features per channel.
  /// Table-I average step of the layer's weights under `format`
  /// (range/255 for INT8); 0 for an FP32 layer, which is left exact.
  double table_step = 0.0;
  /// The step the error bound prices for this layer. Max-affine rounding:
  /// table_step. OPTQ/SPFQ: the measured data-driven step — the q whose
  /// independent-rounding prediction q/sqrt(12) * sqrt(sum_i E[x_i^2])
  /// reproduces the measured calibration-output error (calib_rms_error),
  /// so error-feedback cancellation shows up as a smaller step, and a
  /// tighter BoundWithSteps, than the worst-case range/255. Falls back to
  /// sqrt(12) * rms_delta when no calibration reached the layer.
  double effective_step = 0.0;
  /// RMS of the weight perturbation W - What. Under OPTQ this can exceed
  /// table_step/sqrt(12): error feedback deliberately perturbs remaining
  /// columns more to cancel output error.
  double rms_delta = 0.0;
  /// Largest per-element weight perturbation introduced.
  double max_abs_delta = 0.0;
  /// OPTQ/SPFQ only: calibration feature vectors accumulated into this
  /// layer's Gram (0 means the layer fell back to per-channel rounding),
  /// and the RMS over calibration outputs of the layer-output
  /// perturbation, sqrt(sum_r delta_r H delta_r^T / (n * rows)) with H
  /// the raw Gram.
  int64_t calib_columns = 0;
  double calib_rms_error = 0.0;
};

/// \brief What a variant is: the weight format of each linear layer and
/// the quantizer that rounds it.
struct VariantSpec {
  VariantSpec(NumericFormat format = NumericFormat::kFP32,
              WeightQuantizer quantizer = WeightQuantizer::kMaxAffine)
      : format(format), quantizer(quantizer) {}

  /// Format of every Dense/Conv weight tensor.
  NumericFormat format;
  /// kMaxAffine: the paper's Table-I family (bit-exact mantissa rounding,
  /// per-tensor max-calibration affine INT8). kOptq/kSpfq: data-driven
  /// INT8 (src/quant/optq.h); requires `format == kINT8`.
  WeightQuantizer quantizer;
};

/// \brief A materialized variant: the quantized clone plus one record per
/// Dense/Conv layer.
struct MaterializedModel {
  nn::Model model;
  std::vector<LayerQuantRecord> layers;

  /// Per-layer effective steps in traversal order — feed to the steps
  /// overloads of core::ErrorFlowAnalysis (Bound, QuantTerm, Attribution).
  std::vector<double> EffectiveSteps() const;
};

/// \brief Weight-only post-training quantization (Sec. III-A): the one way
/// to produce a variant.
///
/// Clones `model` once, folds PSN once, and walks its Dense/Conv layers
/// once, rounding each weight tensor (biases stay FP32) as `spec` says:
/// left exact for FP32, mantissa rounding for TF32/FP16/BF16, max-affine
/// INT8, or the OPTQ/SPFQ kernel, which first captures every layer's
/// input Gram in one forward pass on `calibration` (a batch shaped like
/// the model input; empty degrades to per-channel rounding). The clone is
/// named "<model>.<format>" or "<model>.int8+<quantizer>". Deterministic:
/// the same inputs reproduce bit-identical weights, which lets the serving
/// registry price a variant at Register and materialize it later.
MaterializedModel Materialize(const nn::Model& model, const VariantSpec& spec,
                              const tensor::Tensor& calibration = {});

/// \brief Logical storage footprint of a model's parameters at `format`:
/// parameter count times StorageBits / 8. With kFP32 this equals the
/// resident in-memory size of a (de)quantized clone, since reduced-precision
/// values are stored as representable FP32 subsets; reduced formats give the
/// bandwidth-model size the paper's I/O discussion uses.
int64_t ModelStorageBytes(const nn::Model& model, NumericFormat format);

}  // namespace quant
}  // namespace errorflow

#endif  // ERRORFLOW_QUANT_QUANTIZE_MODEL_H_
