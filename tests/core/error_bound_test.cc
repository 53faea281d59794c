#include "core/error_bound.h"

#include <cmath>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/dense.h"
#include "nn/residual.h"
#include "quant/step_size.h"
#include "testing/eq3_reference.h"
#include "testing/test_util.h"

namespace errorflow {
namespace core {
namespace {

using nn::Model;
using quant::NumericFormat;
using tensor::Norm;
using tensor::Tensor;

Model SmallMlp(uint64_t seed = 1, int hidden = 10) {
  nn::MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden_dims = {static_cast<int64_t>(hidden), static_cast<int64_t>(hidden)};
  cfg.output_dim = 4;
  cfg.activation = nn::ActivationKind::kTanh;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

// Every steps overload checks the length once, in Flow: one step too few
// or too many is a contract violation, never an out-of-bounds read.
TEST(ErrorBoundDeathTest, WrongLengthStepsFailCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ErrorFlowAnalysis analysis(ProfileModel(SmallMlp(), {1, 6}));
  const size_t n = static_cast<size_t>(analysis.LinearLayerCount());
  for (size_t len : {n - 1, n + 1}) {
    const std::vector<double> steps(len, 1e-3);
    EXPECT_DEATH(analysis.Bound(0.0, Norm::kL2, steps), "steps.size");
    EXPECT_DEATH(analysis.QuantTerm(steps), "steps.size");
    EXPECT_DEATH(analysis.Attribution(0.0, Norm::kL2, steps), "steps.size");
  }
}

TEST(ErrorBoundTest, GainIsProductOfSigmas) {
  Model m("two");
  auto d1 = std::make_unique<nn::DenseLayer>(2, 2);
  d1->mutable_weight() = Tensor({2, 2}, {3, 0, 0, 1});
  auto d2 = std::make_unique<nn::DenseLayer>(2, 2);
  d2->mutable_weight() = Tensor({2, 2}, {0.5, 0, 0, 0.25});
  m.Add(std::move(d1));
  m.Add(std::move(d2));
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 2}));
  EXPECT_NEAR(analysis.Gain(), 1.5, 1e-6);
}

TEST(ErrorBoundTest, SingleLayerQuantTermMatchesClosedForm) {
  Model m("single");
  auto d = std::make_unique<nn::DenseLayer>(4, 3);
  d->InitXavier(9);
  const Tensor w = d->weight();
  m.Add(std::move(d));
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 4}));
  for (NumericFormat fmt : quant::ReducedFormats()) {
    const double q = quant::AverageStepSize(w, fmt);
    // L = 1: quant term = q sqrt(n0 * n1) / (2 sqrt 3).
    const double expected = q * std::sqrt(4.0 * 3.0) / (2.0 * std::sqrt(3.0));
    EXPECT_NEAR(analysis.QuantTerm(fmt), expected, 1e-12)
        << quant::FormatToString(fmt);
    EXPECT_NEAR(testing::Eq3BoundL2(analysis, 0.0, fmt), expected, 1e-12);
  }
}

TEST(ErrorBoundTest, Fp32QuantTermIsZero) {
  Model m = SmallMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 6}));
  EXPECT_DOUBLE_EQ(analysis.QuantTerm(NumericFormat::kFP32), 0.0);
}

TEST(ErrorBoundTest, BoundIsAffineInInputError) {
  Model m = SmallMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 6}));
  const NumericFormat fmt = NumericFormat::kFP16;
  const double b0 = analysis.Bound(0.0, Norm::kL2, fmt);
  const double b1 = analysis.Bound(1e-3, Norm::kL2, fmt);
  const double b2 = analysis.Bound(2e-3, Norm::kL2, fmt);
  EXPECT_NEAR(b2 - b1, b1 - b0, 1e-12);
  EXPECT_NEAR(b0, analysis.QuantTerm(fmt), 1e-12);
}

TEST(ErrorBoundTest, MonotoneInPrecision) {
  Model m = SmallMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 6}));
  const double tf32 = analysis.QuantTerm(NumericFormat::kTF32);
  const double fp16 = analysis.QuantTerm(NumericFormat::kFP16);
  const double bf16 = analysis.QuantTerm(NumericFormat::kBF16);
  const double int8 = analysis.QuantTerm(NumericFormat::kINT8);
  EXPECT_LE(tf32, fp16 + 1e-15);  // Equal for normal-range weights.
  EXPECT_LT(fp16, bf16);
  EXPECT_LT(bf16, int8);
}

TEST(ErrorBoundTest, LinfInputScaledBySqrtN0) {
  Model m = SmallMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 6}));
  const double from_linf =
      analysis.Bound(1e-3, Norm::kLinf, NumericFormat::kFP32);
  const double from_l2 = analysis.Bound(1e-3 * std::sqrt(6.0), Norm::kL2,
                                        NumericFormat::kFP32);
  EXPECT_NEAR(from_linf, from_l2, 1e-12);
}

TEST(ErrorBoundTest, MaxInputErrorInvertsBound) {
  Model m = SmallMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 6}));
  for (NumericFormat fmt :
       {NumericFormat::kFP32, NumericFormat::kFP16}) {
    for (Norm norm : {Norm::kL2, Norm::kLinf}) {
      const double tol = 0.05;
      const double max_in = analysis.MaxInputError(tol, norm, fmt);
      if (max_in > 0.0) {
        EXPECT_NEAR(analysis.Bound(max_in, norm, fmt), tol, tol * 1e-9);
      }
    }
  }
}

TEST(ErrorBoundTest, MaxInputErrorZeroWhenQuantExceedsTolerance) {
  Model m = SmallMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 6}));
  const double int8_term = analysis.QuantTerm(NumericFormat::kINT8);
  EXPECT_EQ(analysis.MaxInputError(int8_term * 0.5, Norm::kL2,
                                   NumericFormat::kINT8),
            0.0);
}

TEST(ErrorBoundTest, PerFeatureNeverExceedsGlobal) {
  Model m = SmallMlp(3);
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 6}));
  for (NumericFormat fmt : {NumericFormat::kFP32, NumericFormat::kFP16,
                            NumericFormat::kINT8}) {
    const double global = analysis.Bound(1e-3, Norm::kLinf, fmt);
    for (int64_t k = 0; k < 4; ++k) {
      EXPECT_LE(analysis.PerFeatureBound(k, 1e-3, Norm::kLinf, fmt),
                global + 1e-12)
          << "feature " << k;
    }
  }
}

TEST(ErrorBoundTest, RecursionUpperBoundsEq3) {
  // The compositional recursion keeps sigma~ in downstream products, so it
  // is >= the printed Inequality (3) (which uses plain sigma after layer
  // l), and both must agree at FP32.
  Model m = SmallMlp(4);
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 6}));
  for (double in_err : {0.0, 1e-4, 1e-2}) {
    EXPECT_NEAR(analysis.Bound(in_err, Norm::kL2, NumericFormat::kFP32),
                testing::Eq3BoundL2(analysis, in_err, NumericFormat::kFP32),
                1e-12);
    for (NumericFormat fmt : quant::ReducedFormats()) {
      EXPECT_GE(analysis.Bound(in_err, Norm::kL2, fmt),
                testing::Eq3BoundL2(analysis, in_err, fmt) * (1.0 - 1e-12));
    }
  }
}

TEST(ErrorBoundTest, QuantizedSigmaProxyFormula) {
  LayerProfile layer;
  layer.sigma = 2.0;
  layer.n_in = 9;
  layer.n_out = 16;
  layer.weight = testing::Full({16, 9}, 1.0f);  // q = 2^-10 for tf32.
  const double q = LayerStepSize(layer, NumericFormat::kTF32);
  EXPECT_NEAR(q, std::exp2(-10.0), 1e-15);
  ModelProfile profile;
  profile.n0 = 9;
  profile.blocks.emplace_back();
  profile.blocks[0].body.push_back(layer);
  const ErrorFlowAnalysis analysis(std::move(profile));
  const BoundAttribution att =
      analysis.Attribution(0.0, Norm::kL2, NumericFormat::kTF32);
  ASSERT_EQ(att.layers.size(), 1u);
  EXPECT_NEAR(att.layers[0].quantized_sigma, 2.0 + q * 3.0 / std::sqrt(3.0),
              1e-12);
}

nn::Model SampleMlp() {
  nn::MlpConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden_dims = {16, 16};
  cfg.output_dim = 4;
  cfg.seed = 51;
  return nn::BuildMlp(cfg);
}

// Table-I steps of a per-layer format assignment, priced from the weights
// in the profile's traversal order.
std::vector<double> AssignmentSteps(const ErrorFlowAnalysis& analysis,
                                    const std::vector<NumericFormat>& formats) {
  std::vector<double> steps;
  for (const BlockProfile& block : analysis.profile().blocks) {
    for (const LayerProfile& layer : block.body) {
      steps.push_back(
          quant::AverageStepSize(layer.weight, formats[steps.size()]));
    }
    if (block.is_residual && block.has_projection) {
      steps.push_back(quant::AverageStepSize(block.shortcut.weight,
                                             formats[steps.size()]));
    }
  }
  return steps;
}

TEST(ErrorBoundTest, UniformStepsMatchFormat) {
  nn::Model m = SampleMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 8}));
  const int64_t n = analysis.LinearLayerCount();
  std::vector<NumericFormat> uniform(static_cast<size_t>(n),
                                     NumericFormat::kFP16);
  EXPECT_EQ(
      analysis.QuantTerm(AssignmentSteps(analysis, uniform)),
      analysis.QuantTerm(NumericFormat::kFP16));
}

TEST(ErrorBoundTest, BoundWithStepsMatchesBound) {
  nn::Model m = SampleMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 8}));
  std::vector<double> steps;
  for (const LayerProfile* layer : analysis.LinearLayers()) {
    steps.push_back(LayerStepSize(*layer, NumericFormat::kBF16));
  }
  EXPECT_NEAR(analysis.Bound(1e-3, tensor::Norm::kL2, steps),
              analysis.Bound(1e-3, tensor::Norm::kL2, NumericFormat::kBF16),
              1e-15);
}

TEST(ErrorBoundTest, ResidualGainIncludesShortcut) {
  // y = F(x) + x with F a single zero-weight layer: gain must be exactly 1.
  std::vector<std::unique_ptr<nn::Layer>> body;
  auto d = std::make_unique<nn::DenseLayer>(3, 3);
  d->mutable_weight() = Tensor({3, 3});
  body.push_back(std::move(d));
  Model m("res");
  m.Add(std::make_unique<nn::ResidualBlock>(std::move(body), nullptr,
                                            nullptr));
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 3}));
  EXPECT_NEAR(analysis.Gain(), 1.0, 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace errorflow
