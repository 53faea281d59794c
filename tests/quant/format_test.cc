#include "quant/format.h"

#include <cmath>

#include "gtest/gtest.h"
#include "util/random.h"

namespace errorflow {
namespace quant {
namespace {

TEST(FormatTest, Names) {
  EXPECT_STREQ(FormatToString(NumericFormat::kFP32), "fp32");
  EXPECT_STREQ(FormatToString(NumericFormat::kTF32), "tf32");
  EXPECT_STREQ(FormatToString(NumericFormat::kFP16), "fp16");
  EXPECT_STREQ(FormatToString(NumericFormat::kBF16), "bf16");
  EXPECT_STREQ(FormatToString(NumericFormat::kINT8), "int8");
}

TEST(FormatTest, StorageBits) {
  EXPECT_EQ(StorageBits(NumericFormat::kFP32), 32);
  EXPECT_EQ(StorageBits(NumericFormat::kTF32), 19);
  EXPECT_EQ(StorageBits(NumericFormat::kFP16), 16);
  EXPECT_EQ(StorageBits(NumericFormat::kBF16), 16);
  EXPECT_EQ(StorageBits(NumericFormat::kINT8), 8);
}

TEST(FormatTest, ReducedFormatsOrder) {
  const auto& formats = ReducedFormats();
  ASSERT_EQ(formats.size(), 4u);
  EXPECT_EQ(formats[0], NumericFormat::kTF32);
  EXPECT_EQ(formats[3], NumericFormat::kINT8);
}

TEST(RoundTest, Fp32IsIdentity) {
  EXPECT_EQ(RoundToFormat(1.2345678f, NumericFormat::kFP32), 1.2345678f);
}

TEST(RoundTest, ExactlyRepresentableValuesUnchanged) {
  // Powers of two and small sums with few mantissa bits survive all float
  // formats.
  for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 1.5f, -0.75f, 65504.0f}) {
    EXPECT_EQ(RoundToFormat(v, NumericFormat::kFP16), v) << v;
    EXPECT_EQ(RoundToFormat(v, NumericFormat::kTF32), v) << v;
  }
  for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 1.5f}) {
    EXPECT_EQ(RoundToFormat(v, NumericFormat::kBF16), v) << v;
  }
}

TEST(RoundTest, Fp16KnownRoundings) {
  // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10 in FP16; RNE keeps
  // the even mantissa (1.0).
  EXPECT_EQ(RoundToFormat(1.0f + std::exp2(-11.0f), NumericFormat::kFP16),
            1.0f);
  // Slightly above halfway rounds up.
  EXPECT_EQ(
      RoundToFormat(1.0f + std::exp2(-11.0f) * 1.2f, NumericFormat::kFP16),
      1.0f + std::exp2(-10.0f));
}

TEST(RoundTest, Fp16SubnormalQuantum) {
  // FP16 subnormal step is 2^-24.
  const float v = 3.3f * std::exp2(-24.0f);
  const float r = RoundToFormat(v, NumericFormat::kFP16);
  EXPECT_EQ(r, 3.0f * std::exp2(-24.0f));
}

TEST(RoundTest, Fp16OverflowSaturates) {
  EXPECT_EQ(RoundToFormat(1e6f, NumericFormat::kFP16), 65504.0f);
  EXPECT_EQ(RoundToFormat(-1e6f, NumericFormat::kFP16), -65504.0f);
}

TEST(RoundTest, Bf16KeepsSevenMantissaBits) {
  // 1 + 2^-7 is representable; 1 + 2^-8 rounds to 1 or 1+2^-7.
  const float v = 1.0f + std::exp2(-7.0f);
  EXPECT_EQ(RoundToFormat(v, NumericFormat::kBF16), v);
  const float r = RoundToFormat(1.0f + std::exp2(-8.0f),
                                NumericFormat::kBF16);
  EXPECT_TRUE(r == 1.0f || r == v);
}

TEST(RoundTest, ErrorBoundedByHalfUlp) {
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.Normal(0.0, 1.0));
    for (auto [fmt, mant] :
         std::vector<std::pair<NumericFormat, int>>{
             {NumericFormat::kTF32, 10},
             {NumericFormat::kFP16, 10},
             {NumericFormat::kBF16, 7}}) {
      const float r = RoundToFormat(v, fmt);
      const double ulp =
          std::exp2(std::floor(std::log2(std::fabs(v))) - mant);
      EXPECT_LE(std::fabs(static_cast<double>(r) - v), ulp * 0.5 + 1e-12)
          << FormatToString(fmt) << " v=" << v;
    }
  }
}

TEST(RoundTest, RoundingIsIdempotent) {
  util::Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.Normal(0.0, 10.0));
    for (NumericFormat fmt : {NumericFormat::kTF32, NumericFormat::kFP16,
                              NumericFormat::kBF16}) {
      const float once = RoundToFormat(v, fmt);
      EXPECT_EQ(RoundToFormat(once, fmt), once);
    }
  }
}

TEST(RoundTest, NegativeSymmetry) {
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.Normal(0.0, 1.0));
    for (NumericFormat fmt : {NumericFormat::kTF32, NumericFormat::kFP16,
                              NumericFormat::kBF16}) {
      EXPECT_EQ(RoundToFormat(-v, fmt), -RoundToFormat(v, fmt));
    }
  }
}

TEST(RoundTest, BufferRounding) {
  float data[3] = {1.0f, 1.0f + std::exp2(-20.0f), -3.0f};
  RoundBufferToFormat(data, 3, NumericFormat::kBF16);
  EXPECT_EQ(data[0], 1.0f);
  EXPECT_EQ(data[1], 1.0f);
  EXPECT_EQ(data[2], -3.0f);
}

}  // namespace
}  // namespace quant
}  // namespace errorflow
