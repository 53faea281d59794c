// Edge-value semantics of the affine INT8 quantizer: NaN/Inf policy,
// range endpoints, 0.5-ULP ties — pinned bit-exactly across the scalar
// and SIMD paths (QuantizeAffine runs scalar code on the portable kernel
// path and AVX2 code on the others).
#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "quant/affine.h"
#include "testing/test_util.h"

namespace errorflow {
namespace quant {
namespace {

using tensor::Tensor;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Every kernel path must agree code-for-code with the portable (scalar)
// one on any input.
void ExpectPathsAgree(const Tensor& t, const AffineParams& p) {
  tensor::SetKernelPathForTest(tensor::KernelPath::kPortable);
  const auto scalar = QuantizeAffine(t, p);
  testing::ForEachKernelPath([&] {
    const auto codes = QuantizeAffine(t, p);
    ASSERT_EQ(codes.size(), scalar.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(codes[i], scalar[i]) << "element " << i << " = " << t[i];
    }
  });
}

TEST(AffineEdgeTest, NanQuantizesToZeroPointOnBothPaths) {
  // Calibrate on the finite values, then quantize a buffer with NaNs in
  // lanes covered by the SIMD body and by the scalar tail.
  Tensor calib = testing::FromValues({-2.0f, 6.0f});
  const AffineParams p = CalibrateMax(calib);
  Tensor t({17});
  for (int64_t i = 0; i < t.size(); ++i) t[i] = 0.5f;
  t[0] = kNan;   // SIMD lane 0.
  t[7] = kNan;   // SIMD lane 7.
  t[16] = kNan;  // Scalar tail.
  ExpectPathsAgree(t, p);
  const auto codes = QuantizeAffine(t, p);
  const int8_t zp = static_cast<int8_t>(
      std::min(127, std::max(-128, p.zero_point)));
  EXPECT_EQ(codes[0], zp);
  EXPECT_EQ(codes[7], zp);
  EXPECT_EQ(codes[16], zp);
  // Policy: NaN dequantizes to exactly 0.
  const Tensor back = DequantizeAffine(codes, t.shape(), p);
  EXPECT_EQ(back[0], 0.0f);
}

TEST(AffineEdgeTest, NanZeroPointOutsideCodeRangeIsClamped) {
  // An all-positive range pushes the zero point far below -128; the NaN
  // code must clamp into int8 on both paths instead of wrapping.
  Tensor calib = testing::FromValues({10.0f, 20.0f});
  const AffineParams p = CalibrateMax(calib);
  ASSERT_LT(p.zero_point, -128);
  Tensor t({9});
  for (int64_t i = 0; i < t.size(); ++i) t[i] = 15.0f;
  t[3] = kNan;
  t[8] = kNan;
  ExpectPathsAgree(t, p);
  const auto codes = QuantizeAffine(t, p);
  EXPECT_EQ(codes[3], -128);
  EXPECT_EQ(codes[8], -128);
}

TEST(AffineEdgeTest, InfinitiesClampToEndpointCodes) {
  Tensor calib = testing::FromValues({-1.0f, 1.0f});
  const AffineParams p = CalibrateMax(calib);
  Tensor t = testing::FromValues({kInf, -kInf, kInf, -kInf, 0.0f, 1.0f,
                                 -1.0f, kInf, -kInf});
  ExpectPathsAgree(t, p);
  const auto codes = QuantizeAffine(t, p);
  EXPECT_EQ(codes[0], 127);
  EXPECT_EQ(codes[1], -128);
  EXPECT_EQ(codes[7], 127);  // SIMD lane.
  EXPECT_EQ(codes[8], -128);  // Scalar tail.
}

TEST(AffineEdgeTest, RangeEndpointsHitExtremeCodes) {
  Tensor calib = testing::FromValues({-3.0f, 5.0f});
  const AffineParams p = CalibrateMax(calib);
  Tensor t = testing::FromValues({-3.0f, 5.0f, -3.0f, 5.0f, -3.0f, 5.0f,
                                 -3.0f, 5.0f, -3.0f, 5.0f});
  ExpectPathsAgree(t, p);
  const auto codes = QuantizeAffine(t, p);
  // Within one code of the extremes (float rounding in scale inversion).
  EXPECT_LE(codes[0], -127);
  EXPECT_GE(codes[1], 126);
}

TEST(AffineEdgeTest, HalfUlpTiesRoundToNearestEvenOnBothPaths) {
  // scale = 1, zero_point = 0: values k + 0.5 are exact ties and must
  // round to the even integer on both paths (nearbyintf semantics).
  AffineParams p;
  p.scale = 1.0f;
  p.zero_point = 0;
  Tensor t = testing::FromValues({0.5f, 1.5f, 2.5f, 3.5f, -0.5f, -1.5f,
                                 -2.5f, -3.5f, 4.5f, -4.5f});
  ExpectPathsAgree(t, p);
  const auto codes = QuantizeAffine(t, p);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 2);
  EXPECT_EQ(codes[2], 2);
  EXPECT_EQ(codes[3], 4);
  EXPECT_EQ(codes[4], 0);
  EXPECT_EQ(codes[5], -2);
  EXPECT_EQ(codes[6], -2);
  EXPECT_EQ(codes[7], -4);
  EXPECT_EQ(codes[8], 4);
  EXPECT_EQ(codes[9], -4);
}

TEST(AffineEdgeTest, RandomBuffersAgreeAcrossPaths) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Tensor t = testing::RandomTensor({1003}, seed, 10.0);
    ExpectPathsAgree(t, CalibrateMax(t));
  }
}

// --- CalibrateMax degenerate cases (exact round trips) ---

TEST(AffineEdgeTest, ConstantNegativeTensorRoundTripsExactly) {
  Tensor t = testing::Full({12}, -7.0f);
  const AffineParams p = CalibrateMax(t);
  const Tensor back = DequantizeAffine(QuantizeAffine(t, p), t.shape(), p);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(back[i], -7.0f);
}

TEST(AffineEdgeTest, SingleElementRoundTripsExactly) {
  // Representable value within the clamped zero-point range.
  Tensor t = testing::FromValues({42.0f});
  const AffineParams p = CalibrateMax(t);
  const Tensor back = DequantizeAffine(QuantizeAffine(t, p), t.shape(), p);
  EXPECT_EQ(back[0], 42.0f);
}

TEST(AffineEdgeTest, AllZeroTensorRoundTripsExactly) {
  Tensor t({31});
  const AffineParams p = CalibrateMax(t);
  const Tensor back = DequantizeAffine(QuantizeAffine(t, p), t.shape(), p);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(back[i], 0.0f);
}

}  // namespace
}  // namespace quant
}  // namespace errorflow
