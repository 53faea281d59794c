#include "quant/format.h"

#include <cmath>
#include <cstring>

#include "util/macros.h"

namespace errorflow {
namespace quant {

const char* FormatToString(NumericFormat format) {
  switch (format) {
    case NumericFormat::kFP32:
      return "fp32";
    case NumericFormat::kTF32:
      return "tf32";
    case NumericFormat::kFP16:
      return "fp16";
    case NumericFormat::kBF16:
      return "bf16";
    case NumericFormat::kINT8:
      return "int8";
  }
  return "unknown";
}

const char* QuantizerToString(WeightQuantizer quantizer) {
  switch (quantizer) {
    case WeightQuantizer::kMaxAffine:
      return "max-affine";
    case WeightQuantizer::kOptq:
      return "optq";
    case WeightQuantizer::kSpfq:
      return "spfq";
  }
  return "unknown";
}

int StorageBits(NumericFormat format) {
  switch (format) {
    case NumericFormat::kFP32:
      return 32;
    case NumericFormat::kTF32:
      return 19;
    case NumericFormat::kFP16:
      return 16;
    case NumericFormat::kBF16:
      return 16;
    case NumericFormat::kINT8:
      return 8;
  }
  return 32;
}

namespace {

// Rounds the FP32 mantissa of `v` to `keep_bits` fraction bits with
// round-to-nearest-even, preserving FP32's exponent range. This is exactly
// what TF32 (keep 10) and BF16 (keep 7) conversion does for normal values.
float RoundMantissaRne(float v, int keep_bits) {
  if (!std::isfinite(v) || v == 0.0f) return v;
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  const int drop = 23 - keep_bits;
  const uint32_t mask = (1u << drop) - 1u;
  const uint32_t remainder = bits & mask;
  const uint32_t halfway = 1u << (drop - 1);
  bits &= ~mask;
  if (remainder > halfway ||
      (remainder == halfway && ((bits >> drop) & 1u) != 0)) {
    bits += (1u << drop);  // May carry into the exponent: correct rounding.
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

// Bit-exact FP32 -> FP16 -> FP32 round trip with RNE, subnormal support,
// and overflow clamped to +-max finite half (65504), matching saturating
// hardware conversions used for weights.
float RoundToHalf(float v) {
  if (std::isnan(v)) return v;
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint32_t sign = bits >> 31;
  const int32_t exp = static_cast<int32_t>((bits >> 23) & 0xFF) - 127;
  const uint32_t frac = bits & 0x7FFFFF;
  const float sgn = sign != 0 ? -1.0f : 1.0f;

  if (exp > 15 || (exp == 15 && frac > 0x7FE000)) {
    // Beyond half range (would round above 65504): saturate.
    return sgn * 65504.0f;
  }
  if (exp >= -14) {
    // Normal half: round 23-bit fraction to 10 bits.
    return RoundMantissaRne(v, 10);
  }
  // Subnormal half: quantum is 2^-24.
  const double q = std::nearbyint(static_cast<double>(v) * 0x1.0p24);
  return static_cast<float>(q * 0x1.0p-24);
}

}  // namespace

float RoundToFormat(float v, NumericFormat format) {
  switch (format) {
    case NumericFormat::kFP32:
      return v;
    case NumericFormat::kTF32:
      return RoundMantissaRne(v, 10);
    case NumericFormat::kFP16:
      return RoundToHalf(v);
    case NumericFormat::kBF16:
      return RoundMantissaRne(v, 7);
    case NumericFormat::kINT8:
      break;
  }
  EF_CHECK(false && "INT8 requires per-tensor calibration; see affine.h");
  return v;
}

void RoundBufferToFormat(float* data, int64_t n, NumericFormat format) {
  if (format == NumericFormat::kFP32) return;
  for (int64_t i = 0; i < n; ++i) data[i] = RoundToFormat(data[i], format);
}

}  // namespace quant
}  // namespace errorflow
