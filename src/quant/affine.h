#ifndef ERRORFLOW_QUANT_AFFINE_H_
#define ERRORFLOW_QUANT_AFFINE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace errorflow {
namespace quant {

using tensor::Tensor;

/// \brief Per-tensor uniform affine quantization parameters with max
/// calibration (Sec. III-A): real = scale * (q - zero_point).
struct AffineParams {
  float scale = 1.0f;
  int32_t zero_point = 0;
};

/// Computes max-calibration parameters covering [min(W), max(W)] with 256
/// levels. Degenerate (constant) tensors yield scale such that
/// dequantization is exact.
AffineParams CalibrateMax(const Tensor& t);

/// Quantizes to int8 codes using `params`.
///
/// Runs AVX2 code unless the kernel path is portable
/// (tensor::ActiveKernelPath). Edge-value policy, identical on both paths
/// and pinned by tests that run every kernel path:
///  - NaN quantizes to the clamped zero point (dequantizes to 0.0);
///  - +/-Inf clamps to the endpoint codes 127 / -128;
///  - exact .5 ties round to nearest-even (nearbyintf semantics).
std::vector<int8_t> QuantizeAffine(const Tensor& t, const AffineParams& p);

/// Reconstructs a float tensor from int8 codes.
Tensor DequantizeAffine(const std::vector<int8_t>& codes,
                        const tensor::Shape& shape, const AffineParams& p);

/// Convenience: in-place quantize-dequantize round trip — the value error
/// that weight-only INT8 inference observes.
void QuantizeDequantizeInt8(Tensor* t);

}  // namespace quant
}  // namespace errorflow

#endif  // ERRORFLOW_QUANT_AFFINE_H_
