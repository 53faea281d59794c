#include "quant/activation_quant.h"

#include <cmath>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "quant/quantize_model.h"
#include "testing/test_util.h"

namespace errorflow {
namespace quant {
namespace {

using tensor::Tensor;

nn::Model SampleMlp() {
  nn::MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden_dims = {12, 12};
  cfg.output_dim = 4;
  cfg.activation = nn::ActivationKind::kTanh;
  cfg.seed = 41;
  return nn::BuildMlp(cfg);
}

TEST(ActivationQuantTest, Fp32IsExact) {
  nn::Model m = SampleMlp();
  const Tensor x = testing::RandomUniformTensor({8, 6}, 1);
  const Tensor ref = m.Predict(x);
  const Tensor out =
      PredictWithQuantizedActivations(&m, x, NumericFormat::kFP32);
  for (int64_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], out[i]);
}

TEST(ActivationQuantTest, OutputsLiveInTargetFormat) {
  nn::Model m = SampleMlp();
  const Tensor x = testing::RandomUniformTensor({4, 6}, 2);
  const Tensor out =
      PredictWithQuantizedActivations(&m, x, NumericFormat::kBF16);
  // The model ends with a dense layer, so the final tensor is rounded.
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(RoundToFormat(out[i], NumericFormat::kBF16), out[i]);
  }
}

TEST(ActivationQuantTest, ErrorGrowsWithCoarserFormat) {
  nn::Model m = SampleMlp();
  const Tensor x = testing::RandomUniformTensor({64, 6}, 3);
  const Tensor ref = m.Predict(x);
  auto max_err = [&](NumericFormat fmt) {
    nn::Model copy = m.Clone();
    const Tensor out = PredictWithQuantizedActivations(&copy, x, fmt);
    double worst = 0.0;
    for (int64_t i = 0; i < ref.size(); ++i) {
      worst = std::max(worst,
                       std::fabs(static_cast<double>(out[i]) - ref[i]));
    }
    return worst;
  };
  const double fp16 = max_err(NumericFormat::kFP16);
  const double bf16 = max_err(NumericFormat::kBF16);
  const double int8 = max_err(NumericFormat::kINT8);
  EXPECT_GT(fp16, 0.0);
  EXPECT_LT(fp16, bf16);
  EXPECT_LT(bf16, int8);
}

TEST(ActivationQuantTest, ResNetPathAlsoRounds) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4};
  cfg.stage_blocks = {1};
  cfg.seed = 42;
  nn::Model m = nn::BuildResNet(cfg);
  const Tensor x = testing::RandomUniformTensor({2, 2, 8, 8}, 4);
  const Tensor ref = m.Predict(x);
  const Tensor out =
      PredictWithQuantizedActivations(&m, x, NumericFormat::kBF16);
  double diff = 0.0;
  for (int64_t i = 0; i < ref.size(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(out[i]) - ref[i]));
  }
  EXPECT_GT(diff, 0.0);   // Rounding happened...
  EXPECT_LT(diff, 0.15);  // ...but stayed small.
}

TEST(ActivationQuantTest, ComposesWithWeightQuantization) {
  nn::Model m = SampleMlp();
  const Tensor x = testing::RandomUniformTensor({16, 6}, 5);
  MaterializedModel qm = Materialize(m, {NumericFormat::kFP16});
  const Tensor both = PredictWithQuantizedActivations(
      &qm.model, x, NumericFormat::kFP16);
  const Tensor weights_only = qm.model.Predict(x);
  // Activation rounding adds error on top of weight-only quantization.
  double d = 0.0;
  for (int64_t i = 0; i < both.size(); ++i) {
    d = std::max(d, std::fabs(static_cast<double>(both[i]) -
                              weights_only[i]));
  }
  EXPECT_GT(d, 0.0);
}

}  // namespace
}  // namespace quant
}  // namespace errorflow
