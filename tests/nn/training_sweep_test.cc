// Parameterized training sweeps: every (optimizer, activation) pairing
// must fit the same smooth regression problem — the combinations the
// paper's three tasks use (SGD+Tanh, Adam+PReLU, SGD+ReLU) plus the rest
// of the grid.
#include <cmath>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/trainer.h"
#include "testing/test_util.h"
#include "util/random.h"

namespace errorflow {
namespace nn {
namespace {

using tensor::Tensor;

enum class Opt { kSgd, kAdam };

struct SweepParam {
  Opt opt;
  ActivationKind activation;
  bool psn;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = info.param.opt == Opt::kSgd ? "sgd" : "adam";
  name += "_";
  name += ActivationKindToString(info.param.activation);
  if (info.param.psn) name += "_psn";
  return name;
}

class TrainingSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TrainingSweepTest, FitsSmoothRegression) {
  const SweepParam& p = GetParam();
  // Target: y = sin(2 x0) * x1 + 0.3 cos(x2).
  Tensor x = testing::RandomUniformTensor({512, 3}, 1);
  Tensor y({512, 1});
  for (int64_t s = 0; s < 512; ++s) {
    y[s] = std::sin(2.0f * x.at(s, 0)) * x.at(s, 1) +
           0.3f * std::cos(x.at(s, 2));
  }
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden_dims = {24, 24};
  cfg.output_dim = 1;
  cfg.activation = p.activation;
  cfg.use_psn = p.psn;
  cfg.seed = 7;
  Model model = BuildMlp(cfg);

  TrainConfig tc;
  tc.epochs = 120;
  tc.batch_size = 64;
  tc.spectral_penalty = p.psn ? 1e-4 : 0.0;
  MseLoss loss;
  std::vector<EpochStats> history;
  if (p.opt == Opt::kSgd) {
    SgdOptimizer opt(0.05, 0.9);
    history = Trainer(tc).Fit(&model, x, y, loss, &opt);
  } else {
    AdamOptimizer opt(3e-3);
    history = Trainer(tc).Fit(&model, x, y, loss, &opt);
  }
  EXPECT_LT(history.back().train_loss, 2e-2)
      << "final loss " << history.back().train_loss;
  EXPECT_LT(history.back().train_loss, history.front().train_loss * 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrainingSweepTest,
    ::testing::ValuesIn([] {
      std::vector<SweepParam> params;
      for (Opt opt : {Opt::kSgd, Opt::kAdam}) {
        for (ActivationKind act :
             {ActivationKind::kTanh, ActivationKind::kReLU,
              ActivationKind::kPReLU}) {
          for (bool psn : {false, true}) {
            params.push_back({opt, act, psn});
          }
        }
      }
      return params;
    }()),
    SweepName);

TEST(ConvPsnTrainingTest, SmallCnnLearnsWithOperatorNormPsn) {
  // 2-class toy imagery: class 0 = vertical stripes, class 1 = horizontal.
  util::Rng rng(11);
  Tensor x({64, 1, 8, 8});
  Tensor y({64});
  for (int64_t s = 0; s < 64; ++s) {
    const int cls = static_cast<int>(s % 2);
    y[s] = static_cast<float>(cls);
    for (int64_t i = 0; i < 8; ++i) {
      for (int64_t j = 0; j < 8; ++j) {
        const int64_t wave = cls == 0 ? j : i;
        x.at4(s, 0, i, j) =
            static_cast<float>(std::sin(wave * 1.5) +
                               rng.Normal(0.0, 0.05));
      }
    }
  }
  ResNetConfig cfg;
  cfg.in_channels = 1;
  cfg.num_classes = 2;
  cfg.stage_channels = {6};
  cfg.stage_blocks = {1};
  cfg.use_psn = true;
  cfg.seed = 2;
  Model model = BuildResNet(cfg);
  TrainConfig tc;
  tc.epochs = 30;
  tc.batch_size = 16;
  tc.spectral_penalty = 1e-3;
  SgdOptimizer opt(0.01, 0.9);
  SoftmaxCrossEntropyLoss ce;
  Trainer(tc).Fit(&model, x, y, ce, &opt);
  EXPECT_GT(SoftmaxCrossEntropyLoss::Accuracy(model.Predict(x), y), 0.9);
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
