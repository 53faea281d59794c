#include "nn/model.h"

#include "gtest/gtest.h"
#include "nn/activation.h"
#include "nn/builders.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "nn/residual.h"
#include "testing/test_util.h"

namespace errorflow {
namespace nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Model TinyMlp(bool psn = false) {
  MlpConfig cfg;
  cfg.name = "tiny";
  cfg.input_dim = 4;
  cfg.hidden_dims = {6};
  cfg.output_dim = 3;
  cfg.use_psn = psn;
  cfg.seed = 1;
  return BuildMlp(cfg);
}

TEST(ModelTest, ForwardChainsLayers) {
  Model m("chain");
  auto d1 = std::make_unique<DenseLayer>(2, 2);
  d1->mutable_weight() = Tensor({2, 2}, {2, 0, 0, 2});
  auto d2 = std::make_unique<DenseLayer>(2, 2);
  d2->mutable_weight() = Tensor({2, 2}, {0, 1, 1, 0});
  m.Add(std::move(d1));
  m.Add(std::move(d2));
  Tensor x({1, 2}, {1, 3});
  Tensor out = m.Predict(x);
  EXPECT_FLOAT_EQ(out.at(0, 0), 6.0f);  // swap(2x)
  EXPECT_FLOAT_EQ(out.at(0, 1), 2.0f);
}

TEST(ModelTest, ParameterCount) {
  Model m = TinyMlp();
  // 4*6 + 6 + 6*3 + 3 = 51.
  EXPECT_EQ(m.ParameterCount(), 51);
}

TEST(ModelTest, PsnAddsAlphaParams) {
  Model m = TinyMlp(true);
  EXPECT_EQ(m.ParameterCount(), 53);  // +2 alphas.
}

TEST(ModelTest, CloneIsDeepAndEquivalent) {
  Model m = TinyMlp();
  Model c = m.Clone();
  const Tensor x = testing::RandomTensor({3, 4}, 2);
  Tensor a = m.Predict(x), b = c.Predict(x);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // Mutating the clone leaves the original untouched.
  for (Param& p : c.Params()) p.value->Fill(0.0f);
  Tensor a2 = m.Predict(x);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], a2[i]);
}

TEST(ModelTest, ZeroGradsClearsAll) {
  Model m = TinyMlp();
  Tensor out, grad_in;
  const Tensor x = testing::RandomTensor({2, 4}, 3);
  m.Forward(x, &out, true);
  m.Backward(testing::RandomTensor({2, 3}, 4));
  bool any_nonzero = false;
  for (Param& p : m.Params()) {
    for (int64_t i = 0; i < p.grad->size(); ++i) {
      any_nonzero |= (*p.grad)[i] != 0.0f;
    }
  }
  EXPECT_TRUE(any_nonzero);
  m.ZeroGrads();
  for (Param& p : m.Params()) {
    for (int64_t i = 0; i < p.grad->size(); ++i) {
      EXPECT_EQ((*p.grad)[i], 0.0f);
    }
  }
}

TEST(ModelTest, FoldPsnPreservesPredictions) {
  Model m = TinyMlp(true);
  const Tensor x = testing::RandomTensor({4, 4}, 5);
  const Tensor before = m.Predict(x);
  m.FoldPsn();
  const Tensor after = m.Predict(x);
  for (int64_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-5);
  }
  // All PSN flags cleared.
  m.VisitLayers([](Layer* l) {
    if (auto* d = dynamic_cast<DenseLayer*>(l)) {
      EXPECT_FALSE(d->use_psn());
    }
  });
}

TEST(ModelTest, VisitLayersRecursesIntoResidualBlocks) {
  ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4, 8};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 1;
  Model m = BuildResNet(cfg);
  int conv_count = 0, dense_count = 0;
  m.VisitLayers([&](Layer* l) {
    if (l->kind() == LayerKind::kConv2d) ++conv_count;
    if (l->kind() == LayerKind::kDense) ++dense_count;
  });
  // Stem + 2 blocks x 2 convs + 1 projection shortcut = 6 convs.
  EXPECT_EQ(conv_count, 6);
  EXPECT_EQ(dense_count, 1);
}

TEST(ModelTest, FlopsPerSampleDense) {
  Model m = TinyMlp();
  // Dense flops 4*6 + 6*3 = 42, plus elementwise terms for activations
  // and outputs; must be at least the matmul count.
  EXPECT_GE(m.FlopsPerSample({1, 4}), 42);
  EXPECT_LE(m.FlopsPerSample({1, 4}), 42 + 64);
}

TEST(ModelTest, FlopsScaleWithResolution) {
  ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 10;
  cfg.stage_channels = {4};
  cfg.stage_blocks = {1};
  Model m = BuildResNet(cfg);
  const int64_t f32 = m.FlopsPerSample({1, 3, 32, 32});
  const int64_t f64 = m.FlopsPerSample({1, 3, 64, 64});
  EXPECT_NEAR(static_cast<double>(f64) / f32, 4.0, 0.2);
}

TEST(ModelTest, OutputShape) {
  Model m = TinyMlp();
  EXPECT_EQ(m.Predict(Tensor({7, 4})).shape(), (Shape{7, 3}));
}

TEST(ModelTest, TrainingGradientsFlowThroughWholeModel) {
  Model m = TinyMlp();
  const Tensor x = testing::RandomTensor({2, 4}, 6);
  const Tensor coeff = testing::RandomTensor({2, 3}, 7);
  Tensor out;
  m.Forward(x, &out, true);
  Tensor grad_in;
  m.Backward(coeff, &grad_in);
  ASSERT_EQ(grad_in.shape(), x.shape());
  auto f = [&](const Tensor& in) {
    Model c = m.Clone();
    Tensor o = c.Predict(in);
    double acc = 0.0;
    for (int64_t i = 0; i < o.size(); ++i) acc += o[i] * coeff[i];
    return acc;
  };
  testing::ExpectGradientsClose(f, x, grad_in);
}

// The h2 surrogate's shape: 9 -> 50 -> 50 -> 9, tanh.
Model H2Mlp() {
  MlpConfig cfg;
  cfg.input_dim = 9;
  cfg.hidden_dims = {50, 50};
  cfg.output_dim = 9;
  cfg.activation = ActivationKind::kTanh;
  cfg.seed = 7;
  return BuildMlp(cfg);
}

Model SmallResNet() {
  ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4, 6};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 5;
  return BuildResNet(cfg);
}

// The model's layers run one by one, each into a fresh output tensor.
Tensor FreshLayerChain(Model& m, const Tensor& x) {
  Tensor cur = x;
  for (auto& layer : m.mutable_layers()) {
    Tensor next;
    layer->Forward(cur, &next, /*training=*/false);
    cur = std::move(next);
  }
  return cur;
}

void ExpectSameBits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(testing::Digest(got), testing::Digest(want));
}

// Inference reuses the calling thread's per-layer outputs across calls;
// batch sizes that shrink and grow again, and two models of different
// shapes taking turns on one thread, must not leak one call's values or
// shapes into the next.
TEST(ModelTest, InferenceForwardMatchesFreshLayerChain) {
  Model mlp = H2Mlp();
  Model resnet = SmallResNet();
  for (const int64_t batch : {1024, 1, 1024, 7}) {
    SCOPED_TRACE(batch);
    const Tensor x = testing::RandomTensor({batch, 9}, 11, 2.0);
    const Tensor images = testing::RandomTensor({batch, 2, 8, 8}, 13);
    ExpectSameBits(mlp.Predict(x), FreshLayerChain(mlp, x));
    ExpectSameBits(resnet.Predict(images), FreshLayerChain(resnet, images));
    Tensor out({3, 3});  // The wrong shape, reshaped by Forward.
    mlp.Forward(x, &out);
    ExpectSameBits(out, FreshLayerChain(mlp, x));
  }
}

// Forward(x, &x) reads x before it writes it, also when the only layer
// would read and write the same tensor, and a Dense layer's reshaped
// output would replace its input.
TEST(ModelTest, ForwardInPlaceMatchesOutOfPlace) {
  Model one_layer("one-layer");
  auto dense = std::make_unique<DenseLayer>(9, 5);
  dense->InitXavier(3);
  one_layer.Add(std::move(dense));
  Model one_tanh("one-tanh");
  one_tanh.Add(std::make_unique<ActivationLayer>(ActivationKind::kTanh));
  Model mlp = H2Mlp();
  for (Model* m : {&one_layer, &one_tanh, &mlp}) {
    SCOPED_TRACE(m->name());
    const Tensor x = testing::RandomTensor({33, 9}, 17, 2.0);
    Tensor y;
    m->Forward(x, &y);
    Tensor in_place = x;
    m->Forward(in_place, &in_place);
    ExpectSameBits(in_place, y);
  }
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
