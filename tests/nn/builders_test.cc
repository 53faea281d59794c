#include "nn/builders.h"

#include "gtest/gtest.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/residual.h"
#include "testing/test_util.h"

namespace errorflow {
namespace nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(BuildMlpTest, PaperH2Shape) {
  MlpConfig cfg;
  cfg.input_dim = 9;
  cfg.hidden_dims = {50, 50};
  cfg.output_dim = 9;
  Model m = BuildMlp(cfg);
  // Dense, Act, Dense, Act, Dense.
  EXPECT_EQ(m.layers().size(), 5u);
  EXPECT_EQ(m.Predict(Tensor({1, 9})).shape(), (Shape{1, 9}));
}

TEST(BuildMlpTest, DeepBorghesiShape) {
  MlpConfig cfg;
  cfg.input_dim = 13;
  cfg.hidden_dims = std::vector<int64_t>(8, 40);
  cfg.output_dim = 3;
  Model m = BuildMlp(cfg);
  EXPECT_EQ(m.layers().size(), 17u);  // 8x(dense, act) + head.
  EXPECT_EQ(m.Predict(Tensor({2, 13})).shape(), (Shape{2, 3}));
}

TEST(BuildMlpTest, ForwardRuns) {
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dims = {5};
  cfg.output_dim = 2;
  Model m = BuildMlp(cfg);
  const Tensor out = m.Predict(testing::RandomTensor({3, 4}, 1));
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
}

TEST(BuildMlpTest, PsnFlagPropagates) {
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dims = {5};
  cfg.output_dim = 2;
  cfg.use_psn = true;
  Model m = BuildMlp(cfg);
  int psn_layers = 0;
  m.VisitLayers([&](Layer* l) {
    if (auto* d = dynamic_cast<DenseLayer*>(l)) {
      if (d->use_psn()) ++psn_layers;
    }
  });
  EXPECT_EQ(psn_layers, 2);
}

TEST(BuildResNetTest, StageDownsampling) {
  ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 10;
  cfg.stage_channels = {8, 16, 32};
  cfg.stage_blocks = {2, 2, 2};
  Model m = BuildResNet(cfg);
  EXPECT_EQ(m.Predict(Tensor({1, 3, 32, 32})).shape(), (Shape{1, 10}));
  // Residual block count.
  int blocks = 0;
  for (const auto& l : m.layers()) {
    if (l->kind() == LayerKind::kResidualBlock) ++blocks;
  }
  EXPECT_EQ(blocks, 6);
}

TEST(BuildResNetTest, ProjectionOnlyWhereNeeded) {
  ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 2;
  cfg.stage_channels = {4, 8};
  cfg.stage_blocks = {2, 2};
  Model m = BuildResNet(cfg);
  std::vector<bool> has_proj;
  for (const auto& l : m.layers()) {
    if (auto* b = dynamic_cast<ResidualBlock*>(l.get())) {
      has_proj.push_back(b->has_projection());
    }
  }
  // Stage 0 blocks: identity; stage 1 first block: projection (stride 2 +
  // channel change); second: identity.
  ASSERT_EQ(has_proj.size(), 4u);
  EXPECT_FALSE(has_proj[0]);
  EXPECT_FALSE(has_proj[1]);
  EXPECT_TRUE(has_proj[2]);
  EXPECT_FALSE(has_proj[3]);
}

TEST(BuildResNetTest, ForwardRuns) {
  ResNetConfig cfg;
  cfg.in_channels = 13;
  cfg.num_classes = 10;
  cfg.stage_channels = {4, 8};
  cfg.stage_blocks = {1, 1};
  Model m = BuildResNet(cfg);
  const Tensor out = m.Predict(testing::RandomTensor({2, 13, 16, 16}, 2));
  EXPECT_EQ(out.shape(), (Shape{2, 10}));
}

TEST(BuildResNetTest, DeterministicForSeed) {
  ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4};
  cfg.stage_blocks = {1};
  cfg.seed = 77;
  Model a = BuildResNet(cfg);
  Model b = BuildResNet(cfg);
  const Tensor x = testing::RandomTensor({1, 2, 8, 8}, 3);
  const Tensor pa = a.Predict(x), pb = b.Predict(x);
  for (int64_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
