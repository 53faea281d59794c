#include "core/mixed_precision.h"

#include <cmath>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "quant/hardware_model.h"
#include "quant/quantize_model.h"
#include "quant/step_size.h"
#include "testing/test_util.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;
using tensor::Tensor;

nn::Model SampleMlp() {
  nn::MlpConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden_dims = {16, 16};
  cfg.output_dim = 4;
  cfg.seed = 51;
  return nn::BuildMlp(cfg);
}

nn::Model SampleResNet() {
  nn::ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4, 8};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 52;
  return nn::BuildResNet(cfg);
}

// Table-I steps of a per-layer assignment, priced from scratch the way the
// mixed planner prices it (FP32 layers at their 2^-23 step).
std::vector<double> MixedSteps(const ErrorFlowAnalysis& analysis,
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

TEST(MaterializeTest, RecordsFollowProfileTraversal) {
  nn::Model m = SampleResNet();
  const quant::MaterializedModel q =
      quant::Materialize(m, {NumericFormat::kFP16});
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 2, 8, 8}));
  EXPECT_EQ(static_cast<int64_t>(q.layers.size()),
            analysis.LinearLayerCount());
  // Stem conv, block1 (2 convs), block2 (2 convs + projection), head.
  EXPECT_EQ(q.layers.size(), 7u);
  EXPECT_EQ(q.layers.front().layer.rfind("Conv2d", 0), 0u);
  EXPECT_EQ(q.layers.back().layer.rfind("Dense", 0), 0u);
  // Each record prices the layer the profile holds at the same index.
  const std::vector<double>& steps = analysis.Steps(NumericFormat::kFP16);
  for (size_t i = 0; i < q.layers.size(); ++i) {
    EXPECT_EQ(q.layers[i].effective_step, steps[i]) << i;
  }
}

TEST(MixedPrecisionTest, UniformAssignmentMatchesFormat) {
  nn::Model m = SampleMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 8}));
  const int64_t n = analysis.LinearLayerCount();
  std::vector<NumericFormat> uniform(static_cast<size_t>(n),
                                     NumericFormat::kFP16);
  EXPECT_EQ(
      analysis.QuantTerm(MixedSteps(analysis, uniform)),
      analysis.QuantTerm(NumericFormat::kFP16));
}

TEST(MixedPrecisionTest, BoundWithStepsMatchesBound) {
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

TEST(PlanMixedPrecisionTest, RespectsBudget) {
  nn::Model m = SampleMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 8}));
  for (double budget_scale : {0.5, 2.0, 20.0}) {
    const double budget =
        analysis.QuantTerm(NumericFormat::kFP16) * budget_scale;
    const MixedPrecisionPlan plan =
        PlanMixedPrecision(analysis, budget);
    EXPECT_LE(plan.quant_bound, budget * (1 + 1e-12));
    EXPECT_EQ(static_cast<int64_t>(plan.formats.size()),
              analysis.LinearLayerCount());
  }
}

TEST(PlanMixedPrecisionTest, ZeroBudgetKeepsFp32) {
  nn::Model m = SampleMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 8}));
  const MixedPrecisionPlan plan = PlanMixedPrecision(analysis, 0.0);
  for (NumericFormat f : plan.formats) {
    EXPECT_EQ(f, NumericFormat::kFP32);
  }
  EXPECT_DOUBLE_EQ(plan.modeled_speedup, 1.0);
}

TEST(PlanMixedPrecisionTest, HugeBudgetGoesAllFastest) {
  nn::Model m = SampleMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 8}));
  const double budget = analysis.QuantTerm(NumericFormat::kINT8) * 100.0;
  const MixedPrecisionPlan plan = PlanMixedPrecision(analysis, budget);
  for (NumericFormat f : plan.formats) {
    EXPECT_EQ(f, NumericFormat::kINT8);
  }
  EXPECT_NEAR(plan.modeled_speedup,
              quant::ModeledSpeedup(NumericFormat::kINT8), 1e-9);
}

TEST(PlanMixedPrecisionTest, MixedAssignmentEmergesAtIntermediateBudget) {
  // Build a budget that provably admits INT8 on the heaviest layer (but
  // not everywhere): the greedy planner must produce a genuinely mixed
  // assignment that exploits it.
  nn::Model m = SampleMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 8}));
  const int64_t n = analysis.LinearLayerCount();
  ASSERT_EQ(n, 3);
  // Heaviest layer of the 8->16->16->4 MLP is the middle one (index 1).
  std::vector<NumericFormat> probe(static_cast<size_t>(n),
                                   NumericFormat::kFP32);
  probe[1] = NumericFormat::kINT8;
  const double budget =
      analysis.QuantTerm(MixedSteps(analysis, probe)) * 1.2;
  ASSERT_LT(budget, analysis.QuantTerm(NumericFormat::kINT8));

  const MixedPrecisionPlan plan = PlanMixedPrecision(analysis, budget);
  EXPECT_LE(plan.quant_bound, budget * (1 + 1e-12));
  // The plan's bound is its assignment priced from scratch.
  EXPECT_EQ(plan.quant_bound,
            analysis.QuantTerm(MixedSteps(analysis, plan.formats)));
  EXPECT_EQ(plan.formats[1], NumericFormat::kINT8);
  // Not everything can be INT8 under this budget.
  bool all_int8 = true;
  for (NumericFormat f : plan.formats) all_int8 &= f == NumericFormat::kINT8;
  EXPECT_FALSE(all_int8);
  EXPECT_GT(plan.modeled_speedup, 1.0);
}

// The model's Dense layers in traversal order.
std::vector<nn::DenseLayer*> DenseLayers(nn::Model* model) {
  std::vector<nn::DenseLayer*> out;
  model->VisitLayers([&out](nn::Layer* layer) {
    if (auto* d = dynamic_cast<nn::DenseLayer*>(layer)) out.push_back(d);
  });
  return out;
}

TEST(MaterializeMixedTest, AppliesPerLayerFormats) {
  nn::Model m = SampleMlp();
  quant::VariantSpec spec;
  spec.layer_formats = {NumericFormat::kFP32, NumericFormat::kBF16,
                        NumericFormat::kFP32};
  nn::Model q = std::move(quant::Materialize(m, spec).model);
  auto orig = DenseLayers(&m);
  auto quant_layers = DenseLayers(&q);
  ASSERT_EQ(orig.size(), 3u);
  // Layer 0 and 2 untouched, layer 1 rounded.
  auto weight_of = [](nn::DenseLayer* l) -> const Tensor& {
    return l->weight();
  };
  for (int64_t i = 0; i < weight_of(orig[0]).size(); ++i) {
    EXPECT_EQ(weight_of(orig[0])[i], weight_of(quant_layers[0])[i]);
  }
  bool changed = false;
  for (int64_t i = 0; i < weight_of(orig[1]).size(); ++i) {
    changed |= weight_of(orig[1])[i] != weight_of(quant_layers[1])[i];
    EXPECT_EQ(quant::RoundToFormat(weight_of(quant_layers[1])[i],
                                   NumericFormat::kBF16),
              weight_of(quant_layers[1])[i]);
  }
  EXPECT_TRUE(changed);
}

TEST(MaterializeMixedTest, MixedModelErrorWithinMixedBound) {
  nn::Model m = SampleMlp();
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 8}));
  const double budget = analysis.QuantTerm(NumericFormat::kBF16);
  const MixedPrecisionPlan plan = PlanMixedPrecision(analysis, budget);
  quant::VariantSpec spec;
  spec.layer_formats = plan.formats;
  nn::Model q = std::move(quant::Materialize(m, spec).model);
  const Tensor x = testing::RandomUniformTensor({64, 8}, 6);
  const Tensor ref = m.Predict(x);
  const Tensor out = q.Predict(x);
  double worst = 0.0;
  const int64_t per = ref.dim(1);
  for (int64_t s = 0; s < ref.dim(0); ++s) {
    double acc = 0.0;
    for (int64_t j = 0; j < per; ++j) {
      const double d =
          static_cast<double>(ref.at(s, j)) - out.at(s, j);
      acc += d * d;
    }
    worst = std::max(worst, std::sqrt(acc));
  }
  EXPECT_LE(worst, plan.quant_bound);
}

}  // namespace
}  // namespace core
}  // namespace errorflow
