#include "core/spectral_profile.h"

#include <cmath>

#include "gtest/gtest.h"
#include "nn/activation.h"
#include "nn/builders.h"
#include "nn/dense.h"
#include "testing/test_util.h"

namespace errorflow {
namespace core {
namespace {

using nn::Model;
using tensor::Tensor;

TEST(ProfileTest, SingleDenseLayerSigma) {
  Model m("one");
  auto d = std::make_unique<nn::DenseLayer>(3, 3);
  d->mutable_weight() = Tensor({3, 3}, {2, 0, 0, 0, 1, 0, 0, 0, 0.5});
  m.Add(std::move(d));
  const ModelProfile p = ProfileModel(m, {1, 3});
  ASSERT_EQ(p.blocks.size(), 1u);
  ASSERT_EQ(p.blocks[0].body.size(), 1u);
  EXPECT_FALSE(p.blocks[0].is_residual);
  EXPECT_NEAR(p.blocks[0].body[0].sigma, 2.0, 1e-6);
  EXPECT_EQ(p.blocks[0].body[0].n_in, 3);
  EXPECT_EQ(p.blocks[0].body[0].n_out, 3);
  EXPECT_EQ(p.n0, 3);
  EXPECT_EQ(p.n_out, 3);
}

TEST(ProfileTest, FinalRowNormsMatchWeights) {
  Model m("rows");
  auto d = std::make_unique<nn::DenseLayer>(2, 2);
  d->mutable_weight() = Tensor({2, 2}, {3, 4, 0, 1});
  m.Add(std::move(d));
  const ModelProfile p = ProfileModel(m, {1, 2});
  ASSERT_EQ(p.final_row_norms.size(), 2u);
  EXPECT_NEAR(p.final_row_norms[0], 5.0, 1e-6);
  EXPECT_NEAR(p.final_row_norms[1], 1.0, 1e-6);
}

TEST(ProfileTest, RowNormNeverExceedsSigma) {
  nn::MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 5;
  cfg.seed = 3;
  Model m = nn::BuildMlp(cfg);
  const ModelProfile p = ProfileModel(m, {1, 6});
  const double sigma = p.blocks.back().body.back().sigma;
  for (double rn : p.final_row_norms) {
    EXPECT_LE(rn, sigma + 1e-6);
  }
}

// Activations (C = 1) leave no profile entry: one plain block holding the
// three dense layers.
TEST(ProfileTest, MlpActivationGainsAbsorbed) {
  nn::MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dims = {5, 5};
  cfg.output_dim = 2;
  cfg.activation = nn::ActivationKind::kTanh;
  cfg.seed = 1;
  Model m = nn::BuildMlp(cfg);
  const ModelProfile p = ProfileModel(m, {1, 4});
  ASSERT_EQ(p.blocks.size(), 1u);
  EXPECT_FALSE(p.blocks[0].is_residual);
  ASSERT_EQ(p.blocks[0].body.size(), 3u);
}

TEST(ProfileTest, PsnModelProfilesFoldedSigma) {
  nn::MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_dims = {7};
  cfg.output_dim = 3;
  cfg.use_psn = true;
  cfg.seed = 2;
  Model m = nn::BuildMlp(cfg);
  // Force a known alpha.
  m.VisitLayers([](nn::Layer* l) {
    if (auto* d = dynamic_cast<nn::DenseLayer*>(l)) {
      if (d->use_psn()) d->set_alpha(0.75f);
    }
  });
  const ModelProfile p = ProfileModel(m, {1, 5});
  for (const LayerProfile& lp : p.blocks[0].body) {
    if (lp.n_out == 7) {
      EXPECT_NEAR(lp.sigma, 0.75, 1e-4);
    }
  }
}

TEST(ProfileTest, ResNetBlockStructure) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 4;
  cfg.stage_channels = {4, 8};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 4;
  Model m = nn::BuildResNet(cfg);
  const ModelProfile p = ProfileModel(m, {1, 2, 8, 8});
  // stem chain, block(identity), block(projection), head chain.
  ASSERT_EQ(p.blocks.size(), 4u);
  EXPECT_FALSE(p.blocks[0].is_residual);
  EXPECT_TRUE(p.blocks[1].is_residual);
  EXPECT_FALSE(p.blocks[1].has_projection);
  EXPECT_TRUE(p.blocks[2].is_residual);
  EXPECT_TRUE(p.blocks[2].has_projection);
  EXPECT_FALSE(p.blocks[3].is_residual);
  // Conv operator norms measured and positive.
  for (const LayerProfile& lp : p.blocks[1].body) {
    EXPECT_GT(lp.sigma, 0.0);
  }
  EXPECT_GT(p.blocks[2].shortcut.sigma, 0.0);
  EXPECT_EQ(p.n0, 2 * 8 * 8);
  EXPECT_EQ(p.n_out, 4);
}

TEST(ProfileTest, ConvDimsTrackSpatialSize) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 2;
  cfg.stage_channels = {4};
  cfg.stage_blocks = {1};
  cfg.seed = 5;
  Model m = nn::BuildResNet(cfg);
  const ModelProfile p = ProfileModel(m, {1, 3, 16, 16});
  // Stem: 3x16x16 -> 4x16x16.
  EXPECT_EQ(p.blocks[0].body[0].n_in, 3 * 16 * 16);
  EXPECT_EQ(p.blocks[0].body[0].n_out, 4 * 16 * 16);
}

TEST(ProfileTest, DoesNotMutateInputModel) {
  nn::MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden_dims = {4};
  cfg.output_dim = 2;
  cfg.use_psn = true;
  cfg.seed = 6;
  Model m = nn::BuildMlp(cfg);
  const Tensor x = testing::RandomUniformTensor({2, 3}, 7);
  const Tensor before = m.Predict(x);
  ProfileModel(m, {1, 3});
  const Tensor after = m.Predict(x);
  for (int64_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
  // PSN flags intact on the original.
  bool any_psn = false;
  m.VisitLayers([&any_psn](nn::Layer* l) {
    if (auto* d = dynamic_cast<nn::DenseLayer*>(l)) any_psn |= d->use_psn();
  });
  EXPECT_TRUE(any_psn);
}

}  // namespace
}  // namespace core
}  // namespace errorflow
