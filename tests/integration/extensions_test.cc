// Property tests for the Sec.-VI extensions: activation quantization,
// grouped INT8, and mixed precision must all stay below their predicted
// bounds end to end.
#include <cmath>

#include "core/error_bound.h"
#include "core/mixed_precision.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/dense.h"
#include "quant/activation_quant.h"
#include "quant/grouped.h"
#include "quant/quantize_model.h"
#include "testing/test_util.h"

namespace errorflow {
namespace {

using core::ErrorFlowAnalysis;
using core::ProfileModel;
using quant::NumericFormat;
using tensor::Norm;
using tensor::Tensor;

nn::Model RandomMlp(uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.input_dim = 7;
  cfg.hidden_dims = {14, 14};
  cfg.output_dim = 5;
  cfg.activation = nn::ActivationKind::kTanh;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

double MaxSampleL2Error(const Tensor& a, const Tensor& b) {
  const int64_t n = a.dim(0), per = a.size() / n;
  double worst = 0.0;
  for (int64_t s = 0; s < n; ++s) {
    double acc = 0.0;
    for (int64_t i = 0; i < per; ++i) {
      const double d =
          static_cast<double>(a[s * per + i]) - b[s * per + i];
      acc += d * d;
    }
    worst = std::max(worst, std::sqrt(acc));
  }
  return worst;
}

TEST(ActivationQuantBoundTest, AchievedBelowBoundAllFormats) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    nn::Model model = RandomMlp(seed);
    ErrorFlowAnalysis analysis(ProfileModel(model, {1, 7}));
    const Tensor x = testing::RandomUniformTensor({64, 7}, seed + 10);
    const Tensor ref = model.Predict(x);
    for (NumericFormat fmt :
         {NumericFormat::kFP16, NumericFormat::kBF16,
          NumericFormat::kINT8}) {
      // Weights AND activations quantized to the same format.
      quant::MaterializedModel qm = quant::Materialize(model, {fmt});
      const Tensor out =
          quant::PredictWithQuantizedActivations(&qm.model, x, fmt);
      const double achieved = MaxSampleL2Error(ref, out);
      const double bound = analysis.QuantTermWithActivations(fmt, fmt);
      EXPECT_LE(achieved, bound)
          << quant::FormatToString(fmt) << " seed " << seed;
      // Activation quantization strictly enlarges the bound.
      EXPECT_GT(bound, analysis.QuantTerm(fmt));
    }
  }
}

TEST(ActivationQuantBoundTest, Fp32ActivationsReduceToWeightTerm) {
  nn::Model model = RandomMlp(4);
  ErrorFlowAnalysis analysis(ProfileModel(model, {1, 7}));
  EXPECT_NEAR(analysis.QuantTermWithActivations(NumericFormat::kFP16,
                                                NumericFormat::kFP32),
              analysis.QuantTerm(NumericFormat::kFP16), 1e-15);
}

TEST(GroupedBoundTest, GroupedInt8WithinGroupedBound) {
  for (uint64_t seed : {5u, 6u}) {
    nn::Model model = RandomMlp(seed);
    ErrorFlowAnalysis analysis(ProfileModel(model, {1, 7}));

    quant::GroupedConfig gcfg;
    gcfg.scheme = quant::GroupScheme::kPerRow;

    // Quantize every linear layer with per-row INT8.
    nn::Model grouped = model.Clone();
    int64_t quantized = 0;
    grouped.VisitLayers([&](nn::Layer* layer) {
      if (auto* d = dynamic_cast<nn::DenseLayer*>(layer)) {
        quant::QuantizeDequantizeInt8Grouped(&d->mutable_weight(), gcfg);
        ++quantized;
      }
    });
    ASSERT_EQ(quantized, analysis.LinearLayerCount());

    std::vector<double> grouped_steps;
    for (const core::LayerProfile* layer : analysis.LinearLayers()) {
      grouped_steps.push_back(quant::GroupedInt8StepSize(layer->weight, gcfg));
    }

    const Tensor x = testing::RandomUniformTensor({64, 7}, seed + 20);
    const Tensor ref = model.Predict(x);
    const Tensor out = grouped.Predict(x);
    const double achieved = MaxSampleL2Error(ref, out);
    const double grouped_bound = analysis.QuantTerm(grouped_steps);
    const double uniform_bound =
        analysis.QuantTerm(NumericFormat::kINT8);
    EXPECT_LE(achieved, grouped_bound) << "seed " << seed;
    // The grouped bound is tighter than (or equal to) the uniform bound.
    EXPECT_LE(grouped_bound, uniform_bound * (1 + 1e-12));
  }
}

TEST(MixedPrecisionBoundTest, MixedModelWithinPlanBound) {
  nn::Model model = RandomMlp(7);
  ErrorFlowAnalysis analysis(ProfileModel(model, {1, 7}));
  const double budget = analysis.QuantTerm(NumericFormat::kBF16) * 0.8;
  const core::MixedPrecisionPlan plan =
      core::PlanMixedPrecision(analysis, budget);
  quant::VariantSpec spec;
  spec.layer_formats = plan.formats;
  nn::Model mixed = std::move(quant::Materialize(model, spec).model);
  const Tensor x = testing::RandomUniformTensor({64, 7}, 30);
  const double achieved =
      MaxSampleL2Error(model.Predict(x), mixed.Predict(x));
  EXPECT_LE(achieved, plan.quant_bound);
  EXPECT_LE(plan.quant_bound, budget * (1 + 1e-12));
}

}  // namespace
}  // namespace errorflow
