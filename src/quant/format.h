#ifndef ERRORFLOW_QUANT_FORMAT_H_
#define ERRORFLOW_QUANT_FORMAT_H_

#include <cstdint>
#include <vector>

namespace errorflow {
namespace quant {

/// \brief Numerical formats evaluated in the paper (Figs. 5/6/9, Table I).
///
/// FP32 is the full-precision baseline. The reduced formats share FP32's
/// 8-bit exponent except FP16 (5-bit exponent, hence the subnormal clamp in
/// its Table-I step size). INT8 is uniform affine with max calibration.
enum class NumericFormat : uint8_t {
  kFP32 = 0,
  kTF32 = 1,
  kFP16 = 2,
  kBF16 = 3,
  kINT8 = 4,
};

/// All reduced-precision formats, in decreasing-precision order as plotted
/// in the paper's figures.
inline const std::vector<NumericFormat>& ReducedFormats() {
  static const std::vector<NumericFormat> kFormats = {
      NumericFormat::kTF32, NumericFormat::kFP16, NumericFormat::kBF16,
      NumericFormat::kINT8};
  return kFormats;
}

/// FP32 followed by ReducedFormats(): every format a variant can take, in
/// NumericFormat ordinal order.
inline const std::vector<NumericFormat>& AllFormats() {
  static const std::vector<NumericFormat> kFormats = {
      NumericFormat::kFP32, NumericFormat::kTF32, NumericFormat::kFP16,
      NumericFormat::kBF16, NumericFormat::kINT8};
  return kFormats;
}

/// Lowercase canonical name: "fp32", "tf32", "fp16", "bf16", "int8".
const char* FormatToString(NumericFormat format);

/// \brief Weight-quantizer family applied when a model variant is
/// materialized at a reduced format.
///
/// kMaxAffine is the paper's Table-I family: bit-exact mantissa rounding
/// for the float formats, per-tensor max-calibration affine for INT8.
/// kOptq / kSpfq are the data-driven INT8 quantizers (src/quant/optq.h):
/// greedy error-feedback rounding against a calibration-activation Gram,
/// with per-output-channel scales; kSpfq replaces the greedy nearest
/// rounding with SPFQ-style stochastic rounding (fixed seed, still
/// deterministic). Both only apply to kINT8 — float formats have no
/// calibration degree of freedom.
enum class WeightQuantizer : uint8_t {
  kMaxAffine = 0,
  kOptq = 1,
  kSpfq = 2,
};

/// Lowercase canonical name: "max-affine", "optq", "spfq".
const char* QuantizerToString(WeightQuantizer quantizer);

/// Storage bits per weight for the memory/bandwidth model.
/// TF32 occupies 19 bits logically (stored as 32 in practice; we report the
/// logical width used by the paper's bandwidth discussion).
int StorageBits(NumericFormat format);

/// \brief Rounds `v` to the nearest value representable in `format`
/// (round-to-nearest-even), bit-exactly emulating hardware conversion.
///
/// FP16 handles subnormals and clamps overflow to +-65504. TF32/BF16 share
/// FP32's exponent range, so only the mantissa is rounded. INT8 is not a
/// per-value format (it needs per-tensor calibration) — use
/// `QuantizeDequantizeInt8` from affine.h; calling this with kINT8 aborts.
float RoundToFormat(float v, NumericFormat format);

/// Rounds every element of a buffer in place (float formats only).
void RoundBufferToFormat(float* data, int64_t n, NumericFormat format);

}  // namespace quant
}  // namespace errorflow

#endif  // ERRORFLOW_QUANT_FORMAT_H_
