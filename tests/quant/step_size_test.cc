#include "quant/step_size.h"

#include <cmath>

#include "gtest/gtest.h"
#include "quant/affine.h"
#include "testing/test_util.h"

namespace errorflow {
namespace quant {
namespace {

using tensor::Tensor;

TEST(StepSizeTest, ConstantMagnitudeWeights) {
  // All |w| = 1: floor(log2) = 0, so q = 2^-m exactly.
  Tensor w = testing::FromValues({1.0f, -1.0f, 1.0f, -1.0f});
  EXPECT_NEAR(AverageStepSize(w, NumericFormat::kTF32), std::exp2(-10.0),
              1e-12);
  EXPECT_NEAR(AverageStepSize(w, NumericFormat::kFP16), std::exp2(-10.0),
              1e-12);
  EXPECT_NEAR(AverageStepSize(w, NumericFormat::kBF16), std::exp2(-7.0),
              1e-12);
}

TEST(StepSizeTest, Int8UsesRange) {
  // range/255, matching the achieved CalibrateMax scale (codes -128..127
  // give 255 steps across the range, not 256).
  Tensor w = testing::FromValues({-1.0f, 3.0f});
  EXPECT_NEAR(AverageStepSize(w, NumericFormat::kINT8), 4.0 / 255.0, 1e-12);
}

// Regression for the range/256-vs-range/255 mismatch: the Table-I INT8
// step must cover the max-calibration quantizer's own per-element error,
// i.e. max |W - deq(q(W))| <= q/2. With the old 2^-8 * range step the
// achieved scale (range/255) exceeded the step and the admitted bound was
// tighter than the quantizer's error.
TEST(StepSizeTest, Int8StepCoversAchievedError) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Tensor w = testing::RandomTensor({513}, seed, 0.7);
    const double q = AverageStepSize(w, NumericFormat::kINT8);
    Tensor rounded = w;
    QuantizeDequantizeInt8(&rounded);
    double max_err = 0.0;
    for (int64_t i = 0; i < w.size(); ++i) {
      max_err = std::max(
          max_err, std::fabs(static_cast<double>(rounded[i]) - w[i]));
    }
    EXPECT_LE(max_err, q * 0.5 + 1e-9) << "seed " << seed;
  }
}

TEST(StepSizeTest, Fp16SubnormalClampRaisesStep) {
  // Weights far below 2^-14 clamp to the subnormal exponent in FP16 while
  // TF32 keeps shrinking.
  Tensor w = testing::Full({8}, 1e-6f);
  const double fp16 = AverageStepSize(w, NumericFormat::kFP16);
  const double tf32 = AverageStepSize(w, NumericFormat::kTF32);
  EXPECT_GT(fp16, tf32);
  EXPECT_NEAR(fp16, std::exp2(-10.0) * std::exp2(-14.0), 1e-18);
}

TEST(StepSizeTest, Fp16OverflowRaisesStep) {
  // 70000 saturates to 65504 in FP16 — a deterministic error of 4496 that
  // the plain exponent formula (2^(16-10) = 64 per-element step) would
  // understate by two orders of magnitude.
  Tensor w = testing::FromValues({70000.0f, 1.0f, -1.0f, 0.5f});
  const double q = AverageStepSize(w, NumericFormat::kFP16);
  const double d = 70000.0 - 65504.0;
  // RMS accumulation: the saturated element contributes 12 d^2, so the
  // step dominates the saturation error instead of the understating
  // 2^(16-10) = 64 exponent term.
  EXPECT_GE(q, std::sqrt(12.0 * d * d / 4.0) * 0.999);
  EXPECT_GT(q, 64.0);
  Tensor rounded = w;
  RoundBufferToFormat(rounded.data(), rounded.size(), NumericFormat::kFP16);
  EXPECT_NEAR(rounded[0], 65504.0f, 0.5f);
}

TEST(StepSizeTest, Fp16InRangeUnchangedByOverflowAccounting) {
  // All-finite in-range tensors must keep the exact Table-I FP16 step
  // (the saturation branch is bit-neutral for them).
  const Tensor w = testing::RandomTensor({64, 64}, 5, 2.0);
  double acc = 0.0;
  for (int64_t i = 0; i < w.size(); ++i) {
    const double a = std::fabs(static_cast<double>(w[i]));
    if (a == 0.0) continue;
    acc += std::exp2(2.0 * std::max(-14.0, std::floor(std::log2(a))));
  }
  const double expected =
      std::exp2(-10.0) * std::sqrt(acc / static_cast<double>(w.size()));
  EXPECT_DOUBLE_EQ(AverageStepSize(w, NumericFormat::kFP16), expected);
}

TEST(StepSizeTest, Bf16LargerThanFp16ForTypicalWeights) {
  const Tensor w = testing::RandomTensor({64, 64}, 1, 0.1);
  EXPECT_GT(AverageStepSize(w, NumericFormat::kBF16),
            AverageStepSize(w, NumericFormat::kFP16));
}

TEST(StepSizeTest, Tf32EqualsFp16ForNormalRangeWeights) {
  // Same mantissa width and no subnormal involvement -> identical steps.
  const Tensor w = testing::RandomTensor({32, 32}, 2, 0.5);
  EXPECT_DOUBLE_EQ(AverageStepSize(w, NumericFormat::kTF32),
                   AverageStepSize(w, NumericFormat::kFP16));
}

TEST(StepSizeTest, ZerosContributeNothing) {
  Tensor w = testing::FromValues({0.0f, 0.0f, 2.0f, 0.0f});
  // RMS over 4 elements with one at exponent 1: sqrt(4/4)=... step of the
  // single value is 2^-10 * 2^1; RMS = 2^-10 * sqrt(4^1/4) = 2^-10.
  EXPECT_NEAR(AverageStepSize(w, NumericFormat::kTF32), std::exp2(-10.0),
              1e-12);
}

TEST(StepSizeTest, AllZeroTensorHasZeroStep) {
  Tensor w({16});
  for (NumericFormat f : ReducedFormats()) {
    EXPECT_EQ(AverageStepSize(w, f), 0.0) << FormatToString(f);
  }
}

// The Table-I step must upper-bound (within the RMS-average sense) the
// actual rounding error observed: for each format the measured RMS error
// should be <= q/2 on average.
TEST(StepSizeTest, PredictsActualRoundingErrorScale) {
  const Tensor w = testing::RandomTensor({128, 128}, 3, 0.2);
  for (NumericFormat fmt : {NumericFormat::kTF32, NumericFormat::kFP16,
                            NumericFormat::kBF16, NumericFormat::kINT8}) {
    Tensor rounded = w;
    if (fmt == NumericFormat::kINT8) {
      QuantizeDequantizeInt8(&rounded);
    } else {
      RoundBufferToFormat(rounded.data(), rounded.size(), fmt);
    }
    double rms = 0.0;
    for (int64_t i = 0; i < w.size(); ++i) {
      const double d = static_cast<double>(rounded[i]) - w[i];
      rms += d * d;
    }
    rms = std::sqrt(rms / static_cast<double>(w.size()));
    const double q = AverageStepSize(w, fmt);
    // RMS of uniform error in [-q/2, q/2] is q / (2 sqrt 3) ~ 0.29 q.
    EXPECT_LE(rms, q * 0.5) << FormatToString(fmt);
    EXPECT_GE(rms, q * 0.05) << FormatToString(fmt);
  }
}

}  // namespace
}  // namespace quant
}  // namespace errorflow
