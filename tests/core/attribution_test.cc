// Error-budget provenance: Attribution() must decompose the composed
// Eq. (3)/(5) bound into per-layer shares that sum exactly (fp roundoff
// aside) back to Bound()/QuantTerm(), for MLP, conv, and residual
// profiles — the invariant the serving ledger and the CLI rely on.
#include <cmath>

#include "core/error_bound.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "quant/format.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;
using tensor::Norm;

nn::Model SmallMlp(uint64_t seed = 3) {
  nn::MlpConfig cfg;
  cfg.input_dim = 9;
  cfg.hidden_dims = {14, 12};
  cfg.output_dim = 4;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

nn::Model SmallResNet(uint64_t seed = 5) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 4;
  cfg.stage_channels = {6, 8};
  cfg.stage_blocks = {1, 1};  // Stage 2 starts with a projection shortcut.
  cfg.seed = seed;
  return nn::BuildResNet(cfg);
}

// Relative closeness for bound-scale quantities.
void ExpectClose(double expected, double got) {
  EXPECT_NEAR(expected, got,
              1e-9 * std::max(1.0, std::fabs(expected)))
      << "expected " << expected << " got " << got;
}

void CheckAttributionInvariants(const ErrorFlowAnalysis& analysis,
                                double input_err, Norm norm,
                                NumericFormat format) {
  const BoundAttribution att = analysis.Attribution(input_err, norm, format);
  // The ledger reconciles with the opaque scalars.
  ExpectClose(analysis.Bound(input_err, norm, format), att.total);
  ExpectClose(analysis.QuantTerm(format), att.quant_term);
  ExpectClose(analysis.Gain(format), att.gain);
  ExpectClose(att.gain * att.input_err_l2, att.compression_term);
  ExpectClose(att.compression_term + att.quant_term, att.total);
  // One row per linear layer, in traversal order, each share additive.
  ASSERT_EQ(static_cast<int64_t>(att.layers.size()),
            analysis.LinearLayerCount());
  double share_sum = 0.0;
  for (size_t l = 0; l < att.layers.size(); ++l) {
    const LayerAttribution& row = att.layers[l];
    EXPECT_EQ(row.index, static_cast<int64_t>(l));
    EXPECT_FALSE(row.layer.empty());
    EXPECT_GE(row.quant_share, 0.0);
    EXPECT_GE(row.quantized_sigma, row.sigma);
    share_sum += row.quant_share;
  }
  ExpectClose(att.quant_term, share_sum);
}

TEST(AttributionTest, MlpSumsToBoundAcrossFormats) {
  ErrorFlowAnalysis analysis(ProfileModel(SmallMlp(), {1, 9}));
  for (NumericFormat fmt : quant::ReducedFormats()) {
    CheckAttributionInvariants(analysis, 1e-3, Norm::kLinf, fmt);
    CheckAttributionInvariants(analysis, 2e-2, Norm::kL2, fmt);
  }
}

TEST(AttributionTest, ConvAndResidualSumToBound) {
  // The ResNet profile exercises conv layers, identity residual blocks,
  // and a stride-2 projection shortcut.
  ErrorFlowAnalysis analysis(
      ProfileModel(SmallResNet(), {1, 2, 12, 12}));
  bool has_residual = false;
  for (const BlockProfile& block : analysis.profile().blocks) {
    has_residual |= block.is_residual && block.has_projection;
  }
  ASSERT_TRUE(has_residual) << "fixture must cover a projection shortcut";
  for (NumericFormat fmt :
       {NumericFormat::kFP16, NumericFormat::kBF16, NumericFormat::kINT8}) {
    CheckAttributionInvariants(analysis, 1e-4, Norm::kLinf, fmt);
  }
}

TEST(AttributionTest, Fp32HasNoQuantShares) {
  ErrorFlowAnalysis analysis(ProfileModel(SmallMlp(), {1, 9}));
  const BoundAttribution att =
      analysis.Attribution(1e-3, Norm::kLinf, NumericFormat::kFP32);
  EXPECT_DOUBLE_EQ(att.quant_term, 0.0);
  for (const LayerAttribution& row : att.layers) {
    EXPECT_DOUBLE_EQ(row.quant_share, 0.0);
    EXPECT_DOUBLE_EQ(row.step_size, 0.0);
    EXPECT_DOUBLE_EQ(row.quantized_sigma, row.sigma);
  }
  ExpectClose(analysis.Bound(1e-3, Norm::kLinf, NumericFormat::kFP32),
              att.total);
}

TEST(AttributionTest, ZeroInputErrorIsPureQuantTerm) {
  ErrorFlowAnalysis analysis(ProfileModel(SmallMlp(), {1, 9}));
  const BoundAttribution att =
      analysis.Attribution(0.0, Norm::kLinf, NumericFormat::kINT8);
  EXPECT_DOUBLE_EQ(att.compression_term, 0.0);
  ExpectClose(analysis.QuantTerm(NumericFormat::kINT8), att.total);
}

TEST(AttributionTest, HandBuiltChainMatchesClosedForm) {
  // Two dense layers with pinned sigma and steps: the shares have a short
  // closed form. Layer 0 injects q0 sqrt(n1)/(2 sqrt 3) H0 and is then
  // amplified by sigma~1; layer 1 injects against H1 = sigma~0 H0.
  ModelProfile profile;
  profile.model_name = "hand";
  profile.n0 = 4;
  BlockProfile chain;
  LayerProfile l0;
  l0.name = "dense0";
  l0.sigma = 1.5;
  l0.n_in = 4;
  l0.n_out = 9;
  LayerProfile l1;
  l1.name = "dense1";
  l1.sigma = 0.8;
  l1.n_in = 9;
  l1.n_out = 16;
  chain.body = {l0, l1};
  profile.blocks = {chain};
  ErrorFlowAnalysis analysis(profile);

  const double q0 = 1e-3, q1 = 4e-3;
  const std::vector<double> steps = {q0, q1};

  const double inv_sqrt3 = 1.0 / std::sqrt(3.0);
  const double sigma_t0 = l0.sigma + q0 * std::sqrt(4.0) * inv_sqrt3;
  const double sigma_t1 = l1.sigma + q1 * std::sqrt(9.0) * inv_sqrt3;
  const double h0 = std::sqrt(4.0);
  const double inj0 = q0 * std::sqrt(9.0) / (2.0 * std::sqrt(3.0)) * h0;
  const double inj1 =
      q1 * std::sqrt(16.0) / (2.0 * std::sqrt(3.0)) * (sigma_t0 * h0);
  const double input_l2 = 1e-2;

  const BoundAttribution att =
      analysis.Attribution(input_l2, Norm::kL2, steps);
  ASSERT_EQ(att.layers.size(), 2u);
  ExpectClose(inj0 * sigma_t1, att.layers[0].quant_share);
  ExpectClose(inj1, att.layers[1].quant_share);
  ExpectClose(sigma_t0 * sigma_t1 * input_l2, att.compression_term);
  ExpectClose(analysis.Bound(input_l2, Norm::kL2, steps), att.total);
}

}  // namespace
}  // namespace core
}  // namespace errorflow
