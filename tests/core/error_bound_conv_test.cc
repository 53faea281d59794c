// Conv-specific properties of the error-flow bound: the weight-sharing
// noise term, operator-norm profiling, and bound behaviour on stacked
// residual conv blocks.
#include <cmath>

#include "core/error_bound.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/conv2d.h"
#include "quant/quantize_model.h"
#include "testing/test_util.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;
using tensor::Norm;
using tensor::Tensor;

nn::Model SmallCnn(uint64_t seed, std::vector<int> blocks = {1}) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 4;
  cfg.stage_channels = {6};
  cfg.stage_blocks = std::move(blocks);
  cfg.seed = seed;
  return nn::BuildResNet(cfg);
}

TEST(ConvBoundTest, WeightSharingNoiseTermBeatsDenseEquivalent) {
  // The conv noise factor k*sqrt(c_out) must be far below the naive dense
  // factor sqrt(c_out*oh*ow) the printed Eq. (3) would give.
  nn::Model m = SmallCnn(1);
  const ModelProfile profile = ProfileModel(m, {1, 2, 16, 16});
  int convs = 0;
  for (const BlockProfile& block : profile.blocks) {
    for (const LayerProfile& layer : block.body) {
      // A conv layer's output spans oh*ow elements per weight row (output
      // channel); a dense layer has exactly one per row and keeps Eq. (3)'s
      // sqrt(n_out).
      if (layer.n_out > layer.weight.dim(0)) {
        ++convs;
        EXPECT_LT(layer.noise_sqrt,
                  std::sqrt(static_cast<double>(layer.n_out)))
            << layer.name;
      }
    }
  }
  EXPECT_GT(convs, 0);
}

TEST(ConvBoundTest, BoundGrowsWithDepth) {
  nn::Model shallow = SmallCnn(2, {1});
  nn::Model deep = SmallCnn(2, {3});
  ErrorFlowAnalysis a_shallow(ProfileModel(shallow, {1, 2, 16, 16}));
  ErrorFlowAnalysis a_deep(ProfileModel(deep, {1, 2, 16, 16}));
  // Identity residual blocks contribute gain >= 1 + body product > 1,
  // so stacking them strictly increases both terms of the bound.
  EXPECT_GT(a_deep.Gain(), a_shallow.Gain());
  EXPECT_GT(a_deep.QuantTerm(NumericFormat::kFP16),
            a_shallow.QuantTerm(NumericFormat::kFP16));
}

TEST(ConvBoundTest, BoundScalesWithSpatialSize) {
  // Larger inputs mean larger n0 (and conv operator norms measured at that
  // size), so the quantization term must not shrink.
  nn::Model m = SmallCnn(3);
  ErrorFlowAnalysis small(ProfileModel(m, {1, 2, 8, 8}));
  ErrorFlowAnalysis large(ProfileModel(m, {1, 2, 32, 32}));
  EXPECT_GE(large.QuantTerm(NumericFormat::kFP16),
            small.QuantTerm(NumericFormat::kFP16));
}

TEST(ConvBoundTest, QuantizedCnnStaysBelowBound) {
  nn::Model m = SmallCnn(4, {2});
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 2, 12, 12}));
  const Tensor x = testing::RandomUniformTensor({16, 2, 12, 12}, 5);
  const Tensor ref = m.Predict(x);
  for (NumericFormat fmt :
       {NumericFormat::kFP16, NumericFormat::kBF16, NumericFormat::kINT8}) {
    quant::MaterializedModel qm = quant::Materialize(m, {fmt});
    const Tensor out = qm.model.Predict(x);
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
    EXPECT_LE(worst, analysis.QuantTerm(fmt)) << quant::FormatToString(fmt);
  }
}

TEST(ConvBoundTest, PerFeatureBoundOnCnnHead) {
  nn::Model m = SmallCnn(6);
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 2, 8, 8}));
  ASSERT_EQ(analysis.profile().final_row_norms.size(), 4u);
  const double global =
      analysis.Bound(1e-3, Norm::kLinf, NumericFormat::kFP16);
  for (int64_t k = 0; k < 4; ++k) {
    const double per =
        analysis.PerFeatureBound(k, 1e-3, Norm::kLinf, NumericFormat::kFP16);
    EXPECT_LE(per, global + 1e-12);
    EXPECT_GT(per, 0.0);
  }
}

TEST(ConvBoundTest, StrideChangesProfiledDims) {
  nn::Conv2dLayer strided(3, 8, 3, 2, 1);
  strided.InitHe(7);
  nn::Model m("strided");
  m.Add(strided.Clone());
  const ModelProfile profile = ProfileModel(m, {1, 3, 16, 16});
  ASSERT_EQ(profile.blocks.size(), 1u);
  EXPECT_EQ(profile.blocks[0].body[0].n_in, 3 * 16 * 16);
  EXPECT_EQ(profile.blocks[0].body[0].n_out, 8 * 8 * 8);
}

}  // namespace
}  // namespace core
}  // namespace errorflow
