#include "quant/affine.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/stats.h"
#include "util/macros.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EF_AFFINE_X86 1
#include <immintrin.h>
#endif

namespace errorflow {
namespace quant {

namespace {

// NaN policy: a NaN weight quantizes to the (clamped) zero point, i.e. it
// dequantizes to 0.0 — the least-surprising value for a poisoned weight,
// and one both SIMD and scalar paths can produce bit-exactly. Without an
// explicit policy the two paths disagreed: the scalar min/max chain clamped
// NaN to -128 while AVX2's max_ps/min_ps propagated NaN into cvtps_epi32
// (INT_MIN, truncated to code 0).
int8_t NanCode(float zero_point) {
  return static_cast<int8_t>(
      std::min(127.0f, std::max(-128.0f, zero_point)));
}

// Scalar single-precision path: round-to-nearest-even in float, clamp in
// float *before* the integer conversion (branchless min/max), then one
// narrowing cast. The old implementation did all of this per element in
// double; the float pipeline produces identical int8 codes for every value
// the calibrated range can emit (|q| <= 128, far inside float's exact
// integer range).
void QuantizeScalar(const float* in, int64_t n, float inv_scale,
                    float zero_point, int8_t* codes) {
  const int8_t nan_code = NanCode(zero_point);
  for (int64_t i = 0; i < n; ++i) {
    float q = std::nearbyintf(in[i] * inv_scale) + zero_point;
    q = std::min(127.0f, std::max(-128.0f, q));
    codes[i] = std::isnan(in[i]) ? nan_code : static_cast<int8_t>(q);
  }
}

void DequantizeScalar(const int8_t* codes, int64_t n, float scale,
                      float zero_point, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = scale * (static_cast<float>(codes[i]) - zero_point);
  }
}

#if defined(EF_AFFINE_X86)

__attribute__((target("avx2")))
void QuantizeAvx2(const float* in, int64_t n, float inv_scale,
                  float zero_point, int8_t* codes) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 vzp = _mm256_set1_ps(zero_point);
  const __m256 vlo = _mm256_set1_ps(-128.0f);
  const __m256 vhi = _mm256_set1_ps(127.0f);
  const __m256i vnan = _mm256_set1_epi32(NanCode(zero_point));
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 raw = _mm256_loadu_ps(in + i);
    // CUR_DIRECTION = round-to-nearest-even in the default FP environment,
    // matching nearbyintf.
    __m256 v = _mm256_round_ps(_mm256_mul_ps(raw, vinv),
                               _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    v = _mm256_add_ps(v, vzp);
    v = _mm256_min_ps(vhi, _mm256_max_ps(vlo, v));
    // Unordered self-compare marks the NaN lanes (Inf clamps to an
    // endpoint in min/max above, exactly as the scalar path does).
    const __m256 nan_mask = _mm256_cmp_ps(raw, raw, _CMP_UNORD_Q);
    __m256i q = _mm256_cvtps_epi32(v);
    q = _mm256_blendv_epi8(q, vnan, _mm256_castps_si256(nan_mask));
    alignas(32) int32_t lane[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane), q);
    for (int j = 0; j < 8; ++j) {
      codes[i + j] = static_cast<int8_t>(lane[j]);
    }
  }
  if (i < n) QuantizeScalar(in + i, n - i, inv_scale, zero_point, codes + i);
}

__attribute__((target("avx2")))
void DequantizeAvx2(const int8_t* codes, int64_t n, float scale,
                    float zero_point, float* out) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vzp = _mm256_set1_ps(zero_point);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
    _mm256_storeu_ps(out + i,
                     _mm256_mul_ps(vscale, _mm256_sub_ps(v, vzp)));
  }
  if (i < n) DequantizeScalar(codes + i, n - i, scale, zero_point, out + i);
}

#endif  // EF_AFFINE_X86

}  // namespace

AffineParams CalibrateMax(const Tensor& t) {
  AffineParams p;
  if (t.size() == 0) return p;
  const tensor::Summary s = tensor::Summarize(t);
  const double range = s.max - s.min;
  if (range <= 0.0) {
    // Constant tensor: any scale reproduces it exactly via the zero point.
    p.scale = 1.0f;
    p.zero_point =
        static_cast<int32_t>(std::lround(std::min(127.0, std::max(
            -128.0, -s.min))));
    return p;
  }
  p.scale = static_cast<float>(range / 255.0);
  // zero_point chosen so that min maps to -128.
  p.zero_point =
      static_cast<int32_t>(std::lround(-128.0 - s.min / p.scale));
  return p;
}

std::vector<int8_t> QuantizeAffine(const Tensor& t, const AffineParams& p) {
  std::vector<int8_t> codes(static_cast<size_t>(t.size()));
  const float inv_scale = 1.0f / p.scale;
  const float zero_point = static_cast<float>(p.zero_point);
#if defined(EF_AFFINE_X86)
  if (tensor::ActiveKernelPath() != tensor::KernelPath::kPortable) {
    QuantizeAvx2(t.data(), t.size(), inv_scale, zero_point, codes.data());
    return codes;
  }
#endif
  QuantizeScalar(t.data(), t.size(), inv_scale, zero_point, codes.data());
  return codes;
}

Tensor DequantizeAffine(const std::vector<int8_t>& codes,
                        const tensor::Shape& shape, const AffineParams& p) {
  EF_CHECK(static_cast<int64_t>(codes.size()) == tensor::NumElements(shape));
  Tensor out(shape);
  const int64_t n = out.size();
  const float zero_point = static_cast<float>(p.zero_point);
#if defined(EF_AFFINE_X86)
  if (tensor::ActiveKernelPath() != tensor::KernelPath::kPortable) {
    DequantizeAvx2(codes.data(), n, p.scale, zero_point, out.data());
    return out;
  }
#endif
  DequantizeScalar(codes.data(), n, p.scale, zero_point, out.data());
  return out;
}

void QuantizeDequantizeInt8(Tensor* t) {
  const AffineParams p = CalibrateMax(*t);
  const std::vector<int8_t> codes = QuantizeAffine(*t, p);
  *t = DequantizeAffine(codes, t->shape(), p);
}

}  // namespace quant
}  // namespace errorflow
