#include "quant/quantize_model.h"

#include <cmath>

#include "core/error_bound.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/dense.h"
#include "testing/test_util.h"

namespace errorflow {
namespace quant {
namespace {

using tensor::Tensor;

nn::Model SampleModel(bool psn = false) {
  nn::MlpConfig cfg;
  cfg.name = "m";
  cfg.input_dim = 6;
  cfg.hidden_dims = {10, 10};
  cfg.output_dim = 4;
  cfg.use_psn = psn;
  cfg.seed = 31;
  return nn::BuildMlp(cfg);
}

TEST(QuantizeModelTest, Fp32IsExactCopy) {
  nn::Model m = SampleModel();
  MaterializedModel q = Materialize(m, {NumericFormat::kFP32});
  const Tensor x = testing::RandomTensor({3, 6}, 1);
  const Tensor a = m.Predict(x), b = q.model.Predict(x);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // Every layer is recorded, and none was perturbed.
  EXPECT_EQ(q.layers.size(), 3u);
  for (const LayerQuantRecord& rec : q.layers) {
    EXPECT_EQ(rec.format, NumericFormat::kFP32);
    EXPECT_EQ(rec.effective_step, 0.0);
    EXPECT_EQ(rec.max_abs_delta, 0.0);
  }
}

TEST(QuantizeModelTest, OriginalModelUntouched) {
  nn::Model m = SampleModel();
  const Tensor x = testing::RandomTensor({2, 6}, 2);
  const Tensor before = m.Predict(x);
  Materialize(m, {NumericFormat::kINT8});
  const Tensor after = m.Predict(x);
  for (int64_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
}

TEST(QuantizeModelTest, RecordsAllLinearLayers) {
  nn::Model m = SampleModel();
  MaterializedModel q = Materialize(m, {NumericFormat::kFP16});
  EXPECT_EQ(q.layers.size(), 3u);
  for (const LayerQuantRecord& rec : q.layers) {
    EXPECT_GT(rec.table_step, 0.0);
    // Max-affine rounding prices exactly the Table-I step.
    EXPECT_EQ(rec.effective_step, rec.table_step);
    EXPECT_GE(rec.max_abs_delta, 0.0);
    // Weight perturbation cannot exceed ~a few steps.
    EXPECT_LE(rec.max_abs_delta, rec.table_step * 4);
  }
}

TEST(QuantizeModelTest, WeightsActuallyRounded) {
  nn::Model m = SampleModel();
  MaterializedModel q = Materialize(m, {NumericFormat::kBF16});
  q.model.VisitLayers([](nn::Layer* l) {
    if (auto* d = dynamic_cast<nn::DenseLayer*>(l)) {
      for (int64_t i = 0; i < d->weight().size(); ++i) {
        const float w = d->weight()[i];
        EXPECT_EQ(RoundToFormat(w, NumericFormat::kBF16), w);
      }
    }
  });
}

TEST(QuantizeModelTest, LowerPrecisionLargerOutputDeviation) {
  nn::Model m = SampleModel();
  const Tensor x = testing::RandomUniformTensor({16, 6}, 3);
  const Tensor ref = m.Predict(x);
  auto deviation = [&](NumericFormat fmt) {
    MaterializedModel q = Materialize(m, {fmt});
    const Tensor out = q.model.Predict(x);
    double max_err = 0.0;
    for (int64_t i = 0; i < ref.size(); ++i) {
      max_err = std::max(
          max_err, std::fabs(static_cast<double>(out[i]) - ref[i]));
    }
    return max_err;
  };
  const double fp16 = deviation(NumericFormat::kFP16);
  const double bf16 = deviation(NumericFormat::kBF16);
  const double int8 = deviation(NumericFormat::kINT8);
  EXPECT_LT(fp16, bf16);
  EXPECT_LT(bf16, int8);
}

TEST(QuantizeModelTest, FoldsPsnBeforeQuantizing) {
  nn::Model m = SampleModel(/*psn=*/true);
  MaterializedModel q = Materialize(m, {NumericFormat::kFP16});
  q.model.VisitLayers([](nn::Layer* l) {
    if (auto* d = dynamic_cast<nn::DenseLayer*>(l)) {
      EXPECT_FALSE(d->use_psn());
    }
  });
  // Outputs close to the folded original.
  nn::Model folded = m.Clone();
  folded.FoldPsn();
  const Tensor x = testing::RandomUniformTensor({4, 6}, 4);
  const Tensor a = folded.Predict(x), b = q.model.Predict(x);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 0.05);
}

TEST(QuantizeModelTest, NameCarriesFormat) {
  nn::Model m = SampleModel();
  EXPECT_EQ(Materialize(m, {NumericFormat::kINT8}).model.name(), "m.int8");
  EXPECT_EQ(Materialize(m, {NumericFormat::kINT8, WeightQuantizer::kOptq})
                .model.name(),
            "m.int8+optq");
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

TEST(MaterializeTest, RecordsFollowProfileTraversal) {
  nn::Model m = SampleResNet();
  const MaterializedModel q = Materialize(m, {NumericFormat::kFP16});
  core::ErrorFlowAnalysis analysis(core::ProfileModel(m, {1, 2, 8, 8}));
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

}  // namespace
}  // namespace quant
}  // namespace errorflow
