// Equivalence tests for the batched conv execution path: on every kernel
// path, the implicit-GEMM forward must be bit-identical to a retained naive
// per-sample reference (per-element predicated im2col into channel-major
// columns + one Gemm per sample + scalar bias-add) and threaded runs must
// match serial runs bit-for-bit; the batched Backward must agree with
// finite differences.
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "nn/conv2d.h"
#include "nn/pool.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "testing/test_util.h"

namespace errorflow {
namespace nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct ConvCase {
  int64_t n, c, h, w, out_ch;
  int k, s, p;
};

// Odd shapes, strides, and padding combinations, including the EuroSAT
// ResNet geometries (the 13 -> 8 stem, k3 s1 p1 interior convs at 16x16
// down to 2x2, a k1 s2 projection). OH*OW of 4, 16 and 35 is not a
// multiple of the 16-column blocks, so blocks straddle images; out_ch
// covers 1, 5 and 10 (row tiles of 4 plus tails).
const ConvCase kCases[] = {
    {1, 13, 16, 16, 8, 3, 1, 1}, {3, 2, 7, 5, 4, 3, 2, 1},
    {2, 3, 9, 9, 5, 5, 1, 2},    {4, 1, 8, 8, 3, 1, 1, 0},
    {2, 4, 6, 6, 7, 3, 3, 0},    {5, 3, 5, 7, 2, 2, 2, 0},
    {2, 2, 11, 3, 3, 3, 1, 2},   {2, 8, 16, 16, 8, 3, 1, 1},
    {3, 6, 2, 2, 5, 3, 1, 1},    {3, 5, 4, 4, 10, 3, 1, 1},
    {3, 3, 4, 4, 1, 3, 1, 1},    {3, 4, 5, 7, 10, 5, 1, 2},
    {3, 8, 16, 16, 16, 1, 2, 0}, {3, 5, 4, 4, 5, 1, 2, 0},
    {2, 64, 2, 2, 64, 3, 1, 1},  {2, 16, 8, 8, 16, 3, 1, 1},
};

// Retained naive per-sample reference: per-element predicated im2col into
// channel-major (C*K*K, OH*OW) columns, one Gemm per sample, scalar
// bias-add. The layer must reproduce it bit-for-bit: every output is the
// GEMM kernel's multiply-add chain over (ch, ky, kx) from +0, whatever the
// column count, and Conv2dKernel runs that same chain per output, so
// fusing samples or packing panels from NCHW cannot change any bit.
Tensor SeedPerSampleForward(const Tensor& in, const Tensor& wmat,
                            const Tensor& bias, int64_t out_ch, int k, int s,
                            int p) {
  const int64_t n = in.dim(0), c = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int64_t oh = (h + 2 * p - k) / s + 1, ow = (w + 2 * p - k) / s + 1;
  const int64_t ckk = c * k * k;
  const int64_t ohow = oh * ow;
  Tensor out({n, out_ch, oh, ow});
  Tensor cols({ckk, ohow}), out_mat;
  for (int64_t img = 0; img < n; ++img) {
    const float* src = in.data() + img * c * h * w;
    int64_t row = 0;
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = src + ch * h * w;
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx, ++row) {
          float* dst = cols.data() + row * ohow;
          for (int64_t oy = 0; oy < oh; ++oy) {
            const int64_t iy = oy * s + ky - p;
            for (int64_t ox = 0; ox < ow; ++ox) {
              const int64_t ix = ox * s + kx - p;
              dst[oy * ow + ox] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                      ? plane[iy * w + ix]
                                      : 0.0f;
            }
          }
        }
      }
    }
    tensor::Gemm(wmat, cols, &out_mat);
    float* dst = out.data() + img * out_ch * ohow;
    for (int64_t oc = 0; oc < out_ch; ++oc) {
      for (int64_t pix = 0; pix < ohow; ++pix) {
        dst[oc * ohow + pix] = out_mat.at(oc, pix) + bias[oc];
      }
    }
  }
  return out;
}

class ConvBatchedTest : public ::testing::Test {
 protected:
  void TearDown() override {
    tensor::SetKernelThreads(0);
    tensor::SetKernelParallelFlopThreshold(1 << 21);
  }
};

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.size()) * sizeof(float)));
}

TEST_F(ConvBatchedTest, ForwardBitExactMatchesSeedPerSamplePath) {
  testing::ForEachKernelPath([&] {
    for (const ConvCase& cc : kCases) {
      Conv2dLayer conv(cc.c, cc.out_ch, cc.k, cc.s, cc.p);
      conv.InitHe(17);
      for (int64_t i = 0; i < conv.mutable_bias().size(); ++i) {
        conv.mutable_bias()[i] = 0.05f * static_cast<float>(i) - 0.1f;
      }
      const Tensor x = testing::RandomTensor({cc.n, cc.c, cc.h, cc.w}, 3);
      const Tensor ref = SeedPerSampleForward(x, conv.weight(), conv.bias(),
                                              cc.out_ch, cc.k, cc.s, cc.p);
      for (const bool training : {false, true}) {
        Tensor out;
        conv.Forward(x, &out, training);
        ExpectBitIdentical(ref, out);
      }
    }
  });
}

TEST_F(ConvBatchedTest, ForwardBitExactOnSpecialValues) {
  testing::ForEachKernelPath([&] {
    // Signed zeros, infinities, NaN and subnormals sprinkled through the
    // input: padded taps must enter every multiply-add as +0, exactly as the
    // column matrix holds them, for NaN, Inf and -0 to land the same.
    const float kInf = std::numeric_limits<float>::infinity();
    const float specials[] = {0.0f,
                              -0.0f,
                              kInf,
                              -kInf,
                              std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              1e-39f,
                              -3e-40f};
    for (const ConvCase& cc : kCases) {
      Conv2dLayer conv(cc.c, cc.out_ch, cc.k, cc.s, cc.p);
      conv.InitHe(19);
      for (int64_t i = 0; i < conv.mutable_bias().size(); ++i) {
        conv.mutable_bias()[i] = 0.03f * static_cast<float>(i) - 0.1f;
      }
      Tensor x = testing::RandomTensor({cc.n, cc.c, cc.h, cc.w}, 5);
      for (int64_t i = 0; i < x.size(); i += 29) {
        x[i] = specials[(i / 29) % 9];
      }
      const Tensor ref = SeedPerSampleForward(x, conv.weight(), conv.bias(),
                                              cc.out_ch, cc.k, cc.s, cc.p);
      Tensor out;
      conv.Forward(x, &out, false);
      ExpectBitIdentical(ref, out);
      // All -0 input: every output is the bias added to +0.
      x.Fill(-0.0f);
      Tensor zeros;
      conv.Forward(x, &zeros, false);
      ExpectBitIdentical(SeedPerSampleForward(x, conv.weight(), conv.bias(),
                                              cc.out_ch, cc.k, cc.s, cc.p),
                         zeros);
    }
  });
}

TEST_F(ConvBatchedTest, ForwardThreadedMatchesSerialBitExact) {
  testing::ForEachKernelPath([&] {
    for (const ConvCase& cc : kCases) {
      Conv2dLayer conv(cc.c, cc.out_ch, cc.k, cc.s, cc.p);
      conv.InitHe(23);
      const Tensor x = testing::RandomTensor({cc.n, cc.c, cc.h, cc.w}, 7);
      tensor::SetKernelThreads(1);
      Tensor serial;
      conv.Forward(x, &serial, false);
      tensor::SetKernelThreads(4);
      tensor::SetKernelParallelFlopThreshold(1);
      Tensor threaded;
      conv.Forward(x, &threaded, false);
      ExpectBitIdentical(serial, threaded);
      tensor::SetKernelThreads(0);
      tensor::SetKernelParallelFlopThreshold(1 << 21);
    }
  });
}

TEST_F(ConvBatchedTest, PsnForwardThreadedMatchesSerialBitExact) {
  testing::ForEachKernelPath([&] {
    // Two identical clones, each run exactly once, so the warm-started PSN
    // power iteration sees the same state in both configurations.
    Conv2dLayer conv(3, 6, 3, 1, 1, /*use_psn=*/true);
    conv.InitHe(29);
    auto clone = conv.Clone();
    const Tensor x = testing::RandomTensor({4, 3, 10, 10}, 11);
    tensor::SetKernelThreads(1);
    Tensor serial;
    conv.Forward(x, &serial, false);
    tensor::SetKernelThreads(4);
    tensor::SetKernelParallelFlopThreshold(1);
    Tensor threaded;
    clone->Forward(x, &threaded, false);
    ExpectBitIdentical(serial, threaded);
  });
}

TEST_F(ConvBatchedTest, BackwardThreadedMatchesSerialBitExact) {
  const ConvCase cc{3, 4, 9, 7, 5, 3, 2, 1};
  const Tensor x = testing::RandomTensor({cc.n, cc.c, cc.h, cc.w}, 5);

  auto run = [&](bool threaded, Tensor* gin, Tensor* wgrad, Tensor* bgrad) {
    if (threaded) {
      tensor::SetKernelThreads(4);
      tensor::SetKernelParallelFlopThreshold(1);
    } else {
      tensor::SetKernelThreads(1);
      tensor::SetKernelParallelFlopThreshold(1 << 21);
    }
    Conv2dLayer conv(cc.c, cc.out_ch, cc.k, cc.s, cc.p);
    conv.InitHe(31);
    Tensor out;
    conv.Forward(x, &out, true);
    Tensor grad_out(out.shape());
    for (int64_t i = 0; i < grad_out.size(); ++i) {
      grad_out[i] = 0.01f * static_cast<float>(i % 13) - 0.05f;
    }
    conv.Backward(grad_out, gin);
    for (Param& prm : conv.Params()) {
      if (prm.name == std::string("weight")) *wgrad = *prm.grad;
      if (prm.name == std::string("bias")) *bgrad = *prm.grad;
    }
  };

  Tensor gin_s, wg_s, bg_s, gin_t, wg_t, bg_t;
  run(false, &gin_s, &wg_s, &bg_s);
  run(true, &gin_t, &wg_t, &bg_t);
  ExpectBitIdentical(gin_s, gin_t);
  ExpectBitIdentical(wg_s, wg_t);
  ExpectBitIdentical(bg_s, bg_t);
}

TEST_F(ConvBatchedTest, BackwardGradientCheckBatched) {
  // Finite-difference check on the batched Backward with a multi-sample
  // batch and asymmetric geometry.
  const int64_t n = 2, c = 2, h = 5, w = 4, out_ch = 3;
  const int k = 3, s = 1, p = 1;
  Conv2dLayer conv(c, out_ch, k, s, p);
  conv.InitHe(41);
  const Tensor x = testing::RandomTensor({n, c, h, w}, 9);

  auto loss = [&](Conv2dLayer* layer, const Tensor& in) {
    Tensor out;
    layer->Forward(in, &out, false);
    double acc = 0.0;
    for (int64_t i = 0; i < out.size(); ++i) {
      acc += 0.5 * static_cast<double>(out[i]) * out[i];
    }
    return acc;
  };

  Tensor out;
  conv.Forward(x, &out, true);
  Tensor grad_out = out;  // dL/dout = out for L = 0.5 * sum(out^2)
  Tensor grad_in;
  conv.Backward(grad_out, &grad_in);

  const double eps = 1e-3;
  for (int64_t i = 0; i < x.size(); i += 7) {
    Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const double num = (loss(&conv, xp) - loss(&conv, xm)) / (2 * eps);
    EXPECT_NEAR(num, grad_in[i], 5e-2) << "input index " << i;
  }
  Tensor* wgrad = nullptr;
  for (Param& prm : conv.Params()) {
    if (prm.name == std::string("weight")) wgrad = prm.grad;
  }
  ASSERT_NE(wgrad, nullptr);
  for (int64_t i = 0; i < conv.weight().size(); i += 5) {
    const float saved = conv.mutable_weight()[i];
    conv.mutable_weight()[i] = saved + static_cast<float>(eps);
    const double lp = loss(&conv, x);
    conv.mutable_weight()[i] = saved - static_cast<float>(eps);
    const double lm = loss(&conv, x);
    conv.mutable_weight()[i] = saved;
    EXPECT_NEAR((lp - lm) / (2 * eps), (*wgrad)[i], 5e-2)
        << "weight index " << i;
  }
}

TEST_F(ConvBatchedTest, TrainingForwardCachesColumnsForBackward) {
  // A second Backward after a shape change must still be correct (the
  // defensive regather path).
  Conv2dLayer conv(2, 3, 3, 1, 1);
  conv.InitHe(43);
  for (const int64_t batch : {2, 5}) {
    const Tensor x = testing::RandomTensor({batch, 2, 6, 6}, 13);
    Tensor out;
    conv.Forward(x, &out, true);
    Tensor grad_out(out.shape());
    grad_out.Fill(1.0f);
    Tensor grad_in;
    conv.Backward(grad_out, &grad_in);
    ASSERT_EQ(grad_in.shape(), x.shape());
  }
}

// --- Pool equivalence -----------------------------------------------------

TEST_F(ConvBatchedTest, GlobalAvgPoolThreadedMatchesSerialBitExact) {
  GlobalAvgPoolLayer gap;
  const Tensor x = testing::RandomTensor({6, 8, 7, 7}, 27);
  tensor::SetKernelThreads(1);
  Tensor serial, gserial;
  gap.Forward(x, &serial, true);
  Tensor grad_out(serial.shape());
  for (int64_t i = 0; i < grad_out.size(); ++i) {
    grad_out[i] = static_cast<float>(i) * 0.25f;
  }
  gap.Backward(grad_out, &gserial);
  tensor::SetKernelThreads(4);
  tensor::SetKernelParallelFlopThreshold(1);
  Tensor threaded, gthreaded;
  gap.Forward(x, &threaded, true);
  gap.Backward(grad_out, &gthreaded);
  ExpectBitIdentical(serial, threaded);
  ExpectBitIdentical(gserial, gthreaded);
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
