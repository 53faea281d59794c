#include "quant/hardware_model.h"

#include "gtest/gtest.h"

namespace errorflow {
namespace quant {
namespace {

TEST(HardwareProfileTest, Fp32SpeedupIsUnity) {
  EXPECT_DOUBLE_EQ(ModeledSpeedup(NumericFormat::kFP32), 1.0);
}

TEST(HardwareProfileTest, DefaultOrderingMatchesPaper) {
  // FP16 and INT8 give large speedups; TF32/BF16 "provide little speedup"
  // (Sec. IV-C).
  EXPECT_GT(ModeledSpeedup(NumericFormat::kFP16), 4.0);
  EXPECT_GT(ModeledSpeedup(NumericFormat::kINT8),
            ModeledSpeedup(NumericFormat::kFP16) * 0.8);
  EXPECT_LT(ModeledSpeedup(NumericFormat::kTF32), 1.5);
  EXPECT_LT(ModeledSpeedup(NumericFormat::kBF16), 1.5);
}

TEST(ExecutionModelTest, TimeScalesInverselyWithSpeedup) {
  ExecutionModel exec(/*flops=*/1000000, /*bytes=*/4096);
  const double fp32 = exec.SecondsPerSample(NumericFormat::kFP32);
  const double fp16 = exec.SecondsPerSample(NumericFormat::kFP16);
  EXPECT_NEAR(fp32 / fp16, ModeledSpeedup(NumericFormat::kFP16), 1e-9);
}

TEST(ExecutionModelTest, ThroughputIsReciprocal) {
  ExecutionModel exec(500000, 1024);
  EXPECT_NEAR(exec.SamplesPerSecond(NumericFormat::kFP32) *
                  exec.SecondsPerSample(NumericFormat::kFP32),
              1.0, 1e-9);
}

TEST(ExecutionModelTest, IngestThroughputScalesWithBytes) {
  ExecutionModel a(1000000, 1000);
  ExecutionModel b(1000000, 2000);
  EXPECT_NEAR(b.IngestBytesPerSecond(NumericFormat::kFP32) /
                  a.IngestBytesPerSecond(NumericFormat::kFP32),
              2.0, 1e-9);
}

TEST(ExecutionModelTest, BiggerModelsSlower) {
  ExecutionModel small(500000, 1024);
  ExecutionModel big(5000000, 1024);
  EXPECT_GT(big.SecondsPerSample(NumericFormat::kFP32),
            small.SecondsPerSample(NumericFormat::kFP32));
}

}  // namespace
}  // namespace quant
}  // namespace errorflow
