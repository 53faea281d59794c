#include "quant/affine.h"

#include <cmath>

#include "gtest/gtest.h"
#include "tensor/stats.h"
#include "testing/test_util.h"

namespace errorflow {
namespace quant {
namespace {

using tensor::Tensor;

TEST(AffineTest, CalibrationCoversRange) {
  Tensor t = testing::FromValues({-2.0f, 0.0f, 6.0f});
  const AffineParams p = CalibrateMax(t);
  EXPECT_NEAR(p.scale, 8.0 / 255.0, 1e-6);
  // min maps to approximately -128.
  EXPECT_NEAR((-2.0 / p.scale) + p.zero_point, -128.0, 1.0);
}

TEST(AffineTest, RoundTripErrorBoundedByHalfScale) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Tensor t = testing::RandomTensor({257}, seed);
    const AffineParams p = CalibrateMax(t);
    const auto codes = QuantizeAffine(t, p);
    const Tensor back = DequantizeAffine(codes, t.shape(), p);
    for (int64_t i = 0; i < t.size(); ++i) {
      EXPECT_LE(std::fabs(static_cast<double>(back[i]) - t[i]),
                p.scale * 0.5 + 1e-6);
    }
  }
}

TEST(AffineTest, CodesStayInInt8Range) {
  const Tensor t = testing::RandomTensor({1000}, 3, 100.0);
  const AffineParams p = CalibrateMax(t);
  for (int8_t c : QuantizeAffine(t, p)) {
    EXPECT_GE(c, -128);
    EXPECT_LE(c, 127);
  }
}

TEST(AffineTest, ConstantTensorReconstructsNearExactly) {
  Tensor t = testing::Full({16}, 3.0f);
  Tensor copy = t;
  QuantizeDequantizeInt8(&copy);
  for (int64_t i = 0; i < copy.size(); ++i) {
    EXPECT_NEAR(copy[i], 3.0f, 1.0f);  // Within one integer step.
  }
}

TEST(AffineTest, ZeroTensorExact) {
  Tensor t({8});
  QuantizeDequantizeInt8(&t);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(AffineTest, QuantizeDequantizePreservesShape) {
  Tensor t = testing::RandomTensor({3, 4, 5}, 4);
  const tensor::Shape shape = t.shape();
  QuantizeDequantizeInt8(&t);
  EXPECT_EQ(t.shape(), shape);
}

TEST(AffineTest, ExtremesMapToExtremeCodes) {
  Tensor t = testing::FromValues({-1.0f, 1.0f});
  const AffineParams p = CalibrateMax(t);
  const auto codes = QuantizeAffine(t, p);
  // Within one code of the extreme (float rounding in scale inversion).
  EXPECT_LE(codes[0], -127);
  EXPECT_GE(codes[1], 126);
}

}  // namespace
}  // namespace quant
}  // namespace errorflow
