#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/pool.h"
#include "testing/test_util.h"

namespace errorflow {
namespace nn {
namespace {

// Regression tests for the spectral-cache data races: DenseLayer and
// Conv2dLayer mutate `mutable` power-iteration state from const-looking
// paths (EffectiveWeight / SpectralNorm / inference Forward), so two
// threads executing one model instance used to race. Run these under
// ThreadSanitizer (the ci.yml tsan job does) to keep the fix honest.

constexpr int kThreads = 4;
constexpr int kItersPerThread = 25;

// N threads Predict on ONE folded model; every result must be bit-identical
// to the serial result (folded inference mutates no shared layer state).
TEST(ConcurrencyTest, FoldedModelConcurrentPredictMatchesSerial) {
  MlpConfig cfg;
  cfg.input_dim = 12;
  cfg.hidden_dims = {16, 16};
  cfg.output_dim = 5;
  cfg.use_psn = true;
  cfg.seed = 31;
  Model model = BuildMlp(cfg);
  model.FoldPsn();

  const tensor::Tensor input = testing::RandomTensor({8, 12}, 77);
  const tensor::Tensor want = model.Predict(input);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int it = 0; it < kItersPerThread; ++it) {
        tensor::Tensor got = model.Predict(input);
        if (got.size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (int64_t i = 0; i < got.size(); ++i) {
          if (got[i] != want[i]) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// A residual model exercises ResidualBlock::Forward, whose inference path
// used to write member scratch tensors (a second shared-state race).
TEST(ConcurrencyTest, FoldedResNetConcurrentPredictMatchesSerial) {
  ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4, 6};
  cfg.stage_blocks = {1, 1};
  cfg.use_psn = true;
  cfg.seed = 5;
  Model model = BuildResNet(cfg);
  model.FoldPsn();

  const tensor::Tensor input = testing::RandomTensor({2, 2, 8, 8}, 13);
  const tensor::Tensor want = model.Predict(input);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int it = 0; it < 8; ++it) {
        tensor::Tensor got = model.Predict(input);
        bool same = got.size() == want.size();
        for (int64_t i = 0; same && i < got.size(); ++i) {
          same = got[i] == want[i];
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Inference keeps each thread's layer outputs between calls. Four threads,
// each alternating between two models of different shapes (so every call
// reshapes the thread's outputs), must each get the serial results.
TEST(ConcurrencyTest, AlternatingModelsConcurrentPredictMatchesSerial) {
  MlpConfig mlp_cfg;
  mlp_cfg.input_dim = 9;
  mlp_cfg.hidden_dims = {50, 50};
  mlp_cfg.output_dim = 9;
  mlp_cfg.activation = ActivationKind::kTanh;
  mlp_cfg.seed = 7;
  Model mlp = BuildMlp(mlp_cfg);
  ResNetConfig resnet_cfg;
  resnet_cfg.in_channels = 2;
  resnet_cfg.num_classes = 3;
  resnet_cfg.stage_channels = {4, 6};
  resnet_cfg.stage_blocks = {1, 1};
  resnet_cfg.seed = 5;
  Model resnet = BuildResNet(resnet_cfg);

  const tensor::Tensor rows = testing::RandomTensor({64, 9}, 19, 2.0);
  const tensor::Tensor images = testing::RandomTensor({3, 2, 8, 8}, 23);
  const tensor::Tensor want_rows = mlp.Predict(rows);
  const tensor::Tensor want_images = resnet.Predict(images);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int it = 0; it < kItersPerThread; ++it) {
        if (testing::Digest(mlp.Predict(rows)) !=
            testing::Digest(want_rows)) {
          mismatches.fetch_add(1);
        }
        if (testing::Digest(resnet.Predict(images)) !=
            testing::Digest(want_images)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The original race: an UNFOLDED PSN dense layer refreshes its sigma cache
// lazily from const accessors. Hammer SpectralNorm and inference Forward
// concurrently (both snapshot internally); under PSN sigma converges to
// alpha, so every thread must observe SpectralNorm ~= alpha throughout.
// (EffectiveWeight's raw reference is deliberately excluded: under PSN it
// aliases a cache the next call overwrites, documented single-threaded.)
TEST(ConcurrencyTest, PsnDenseConcurrentSpectralAccessorsAreSafe) {
  DenseLayer layer(10, 14, /*use_psn=*/true);
  layer.InitXavier(21);
  layer.set_alpha(1.5f);
  const double alpha = 1.5;

  const tensor::Tensor input = testing::RandomTensor({4, 10}, 3);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      tensor::Tensor out;
      for (int it = 0; it < kItersPerThread; ++it) {
        if ((t + it) % 2 == 0) {
          const double sigma = layer.SpectralNorm();
          if (std::fabs(sigma - alpha) > 1e-3 * alpha) bad.fetch_add(1);
        } else {
          layer.Forward(input, &out, /*training=*/false);
          if (out.size() != 4 * 14) bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

// Same hammering for the conv layer's operator-norm cache.
TEST(ConcurrencyTest, PsnConv2dConcurrentSpectralAccessorsAreSafe) {
  Conv2dLayer layer(3, 5, /*kernel=*/3, /*stride=*/1, /*padding=*/1,
                    /*use_psn=*/true);
  layer.InitHe(9);

  const tensor::Tensor input = testing::RandomTensor({2, 3, 6, 6}, 17);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      tensor::Tensor out;
      for (int it = 0; it < 10; ++it) {
        if ((t + it) % 2 == 0) {
          const double sigma = layer.OperatorNorm(6, 6);
          if (!(sigma > 0.0)) bad.fetch_add(1);
        } else {
          layer.Forward(input, &out, /*training=*/false);
          if (out.size() != 2 * 5 * 6 * 6) bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

// N threads run the batched conv Forward on ONE folded (non-PSN) layer.
// The batched path keeps its scratch thread-local, so concurrent calls
// must stay data-race free and bit-identical to a serial run.
TEST(ConcurrencyTest, BatchedConvConcurrentForwardMatchesSerial) {
  Conv2dLayer layer(4, 6, /*kernel=*/3, /*stride=*/1, /*padding=*/1);
  layer.InitHe(13);

  const tensor::Tensor input = testing::RandomTensor({4, 4, 10, 10}, 23);
  tensor::Tensor want;
  layer.Forward(input, &want, /*training=*/false);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      tensor::Tensor got;
      for (int it = 0; it < kItersPerThread; ++it) {
        layer.Forward(input, &got, /*training=*/false);
        if (got.size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (int64_t i = 0; i < got.size(); ++i) {
          if (got[i] != want[i]) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Same contract for the plane-parallel pooling layer.
TEST(ConcurrencyTest, PoolConcurrentForwardMatchesSerial) {
  GlobalAvgPoolLayer gap;

  const tensor::Tensor input = testing::RandomTensor({4, 6, 8, 8}, 29);
  tensor::Tensor want;
  gap.Forward(input, &want, /*training=*/false);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      tensor::Tensor got;
      for (int it = 0; it < kItersPerThread; ++it) {
        gap.Forward(input, &got, /*training=*/false);
        if (got.size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (int64_t i = 0; i < got.size(); ++i) {
          if (got[i] != want[i]) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
