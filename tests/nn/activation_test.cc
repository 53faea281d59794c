#include "nn/activation.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "tensor/kernels.h"
#include "testing/test_util.h"

namespace errorflow {
namespace nn {
namespace {

using tensor::Tensor;

TEST(ActivationTest, ReluForward) {
  ActivationLayer relu(ActivationKind::kReLU);
  Tensor in({1, 4}, {-2, -0.5, 0, 3});
  Tensor out;
  relu.Forward(in, &out, false);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_EQ(out[3], 3.0f);
}

TEST(ActivationTest, TanhForward) {
  ActivationLayer tanh_layer(ActivationKind::kTanh);
  Tensor in({1, 2}, {0, 1});
  Tensor out;
  tanh_layer.Forward(in, &out, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_NEAR(out[1], std::tanh(1.0f), 1e-6);
}

// Every activation's sampled derivative stays within C = 1, the bound the
// error-flow analysis assumes for every kind (nn/activation.h).
class DerivativeBoundTest
    : public ::testing::TestWithParam<ActivationKind> {};

TEST_P(DerivativeBoundTest, SampledSlopeWithinBound) {
  const ActivationKind kind = GetParam();
  // PReLU at the top of its clamped slope range [0, 1].
  ActivationLayer layer(kind, 1.0f);
  const double eps = 1e-4;
  for (double x = -6.0; x <= 6.0; x += 0.037) {
    Tensor a({1, 1}, {static_cast<float>(x - eps)});
    Tensor b({1, 1}, {static_cast<float>(x + eps)});
    Tensor ya, yb;
    layer.Forward(a, &ya, false);
    layer.Forward(b, &yb, false);
    const double slope = (yb[0] - ya[0]) / (2 * eps);
    // 5e-3 headroom absorbs float32 finite-difference noise.
    EXPECT_LE(std::fabs(slope), 1.0 + 5e-3) << "at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DerivativeBoundTest,
    ::testing::Values(ActivationKind::kReLU, ActivationKind::kPReLU,
                      ActivationKind::kTanh),
    [](const ::testing::TestParamInfo<ActivationKind>& info) {
      return ActivationKindToString(info.param);
    });

// Backward pass is the analytic derivative of forward.
class ActivationGradTest : public ::testing::TestWithParam<ActivationKind> {};

TEST_P(ActivationGradTest, BackwardMatchesFiniteDifference) {
  ActivationLayer layer(GetParam(), 0.25f);
  const Tensor x = testing::RandomTensor({2, 5}, 42);
  // Loss: sum of outputs weighted by fixed coefficients.
  const Tensor w = testing::RandomTensor({2, 5}, 43);
  auto f = [&](const Tensor& in) {
    ActivationLayer fresh(GetParam(), 0.25f);
    Tensor out;
    fresh.Forward(in, &out, false);
    double acc = 0.0;
    for (int64_t i = 0; i < out.size(); ++i) acc += out[i] * w[i];
    return acc;
  };
  Tensor out, grad_in;
  layer.Forward(x, &out, true);
  layer.Backward(w, &grad_in);
  testing::ExpectGradientsClose(f, x, grad_in, 1e-2, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Smooth, ActivationGradTest,
    ::testing::Values(ActivationKind::kPReLU, ActivationKind::kTanh),
    [](const ::testing::TestParamInfo<ActivationKind>& info) {
      return ActivationKindToString(info.param);
    });

TEST(ActivationTest, PReluSlopeGradientAccumulates) {
  ActivationLayer prelu(ActivationKind::kPReLU, 0.5f);
  Tensor in({1, 2}, {-2, 3});
  Tensor out, grad_in;
  prelu.Forward(in, &out, true);
  Tensor grad_out({1, 2}, {1, 1});
  prelu.Backward(grad_out, &grad_in);
  auto params = prelu.Params();
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0].name, "slope");
  // d out / d slope = x for x < 0; here only -2 contributes.
  EXPECT_FLOAT_EQ((*params[0].grad)[0], -2.0f);
  EXPECT_FALSE(params[0].decay);
}

TEST(ActivationTest, ClampSlopeEnforcesUnitInterval) {
  ActivationLayer prelu(ActivationKind::kPReLU, 0.5f);
  auto params = prelu.Params();
  (*params[0].value)[0] = 1.7f;
  prelu.ClampSlope();
  EXPECT_FLOAT_EQ(prelu.slope(), 1.0f);
  (*params[0].value)[0] = -0.3f;
  prelu.ClampSlope();
  EXPECT_FLOAT_EQ(prelu.slope(), 0.0f);
}

TEST(ActivationTest, NonPReluHasNoParams) {
  EXPECT_TRUE(ActivationLayer(ActivationKind::kReLU).Params().empty());
  EXPECT_TRUE(ActivationLayer(ActivationKind::kTanh).Params().empty());
}

TEST(ActivationTest, CloneKeepsSlope) {
  ActivationLayer prelu(ActivationKind::kPReLU, 0.33f);
  auto clone = prelu.Clone();
  auto* cast = dynamic_cast<ActivationLayer*>(clone.get());
  ASSERT_NE(cast, nullptr);
  EXPECT_FLOAT_EQ(cast->slope(), 0.33f);
}

// ---------------------------------------------------------------------------
// Differential tests against the original per-element implementation.
// ---------------------------------------------------------------------------

// The single-loop Forward/Backward that ActivationLayer had before its loops
// were split per kind and Tanh moved to tensor::TanhKernel: one switch per
// element, scalar std::tanh. The layer must match it bit for bit.
std::vector<float> RefForward(ActivationKind kind, float a,
                              const std::vector<float>& in) {
  std::vector<float> out(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const float x = in[i];
    float y = x;
    switch (kind) {
      case ActivationKind::kReLU:
        y = x > 0.0f ? x : 0.0f;
        break;
      case ActivationKind::kPReLU:
        y = x > 0.0f ? x : a * x;
        break;
      case ActivationKind::kTanh:
        y = std::tanh(x);
        break;
    }
    out[i] = y;
  }
  return out;
}

std::vector<float> RefBackward(ActivationKind kind, float a,
                               const std::vector<float>& x,
                               const std::vector<float>& grad,
                               float* slope_grad_out) {
  std::vector<float> out(x.size());
  double slope_grad = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const float xv = x[i];
    const float g = grad[i];
    float d = 1.0f;
    switch (kind) {
      case ActivationKind::kReLU:
        d = xv > 0.0f ? 1.0f : 0.0f;
        break;
      case ActivationKind::kPReLU:
        d = xv > 0.0f ? 1.0f : a;
        if (xv <= 0.0f) slope_grad += static_cast<double>(g) * xv;
        break;
      case ActivationKind::kTanh: {
        const float t = std::tanh(xv);
        d = 1.0f - t * t;
        break;
      }
    }
    out[i] = g * d;
  }
  *slope_grad_out = static_cast<float>(slope_grad);
  return out;
}

float FromBits(uint32_t bits) { return std::bit_cast<float>(bits); }

// Inputs that reach every branch of fdlibm's tanhf and expm1f: signed
// zeros, infinities, NaNs with payloads, denormals, +-4 ulps around each
// range threshold (in |x|), then random values across all magnitudes.
std::vector<float> EdgeInputs() {
  std::vector<float> v;
  for (uint32_t bits : {0x00000000u, 0x7f800000u, 0x7fc00000u, 0x7fc12345u,
                        0x7f800001u, 0x7fbfffffu, 0x00000001u, 0x00400000u,
                        0x007fffffu, 0x00800000u}) {
    v.push_back(FromBits(bits));
    v.push_back(FromBits(bits | 0x80000000u));
  }
  // tanhf: 2^-55, 1 and 22. expm1f(2|x|): |2x| = 2^-25, 0.5 ln2 and
  // 1.5 ln2. Then the reduction's k = 23 and k = 57 boundaries, where
  // expm1f changes its reconstruction formula.
  std::vector<uint32_t> thresholds = {0x24000000u, 0x3f800000u, 0x41b00000u,
                                      0x32800000u, 0x3e317218u, 0x3f051592u};
  for (double k : {23.0, 57.0}) {
    thresholds.push_back(std::bit_cast<uint32_t>(
        static_cast<float>((k - 0.5) * std::log(2.0) / 2)));
  }
  for (uint32_t t : thresholds) {
    for (int d = -4; d <= 4; ++d) {
      const uint32_t bits = t + static_cast<uint32_t>(d);
      v.push_back(FromBits(bits));
      v.push_back(FromBits(bits | 0x80000000u));
    }
  }
  util::Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    v.push_back(static_cast<float>(rng.Normal(0.0, 3.0)));
    const double mag = std::exp2(rng.Uniform(-140.0, 6.0));
    v.push_back(static_cast<float>(rng.UniformDouble() < 0.5 ? mag : -mag));
  }
  return v;
}

constexpr ActivationKind kAllKinds[] = {
    ActivationKind::kReLU, ActivationKind::kPReLU, ActivationKind::kTanh};

void ExpectSameBits(const std::vector<float>& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(static_cast<int64_t>(want.size()), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(want[i]),
              std::bit_cast<uint32_t>(got[static_cast<int64_t>(i)]))
        << what << " element " << i << ": want " << want[i] << ", got "
        << got[static_cast<int64_t>(i)];
  }
}

// Every kind's Forward and Backward matches the per-element reference on
// the edge inputs, cut into tensors of 0 to 17 elements so that each value
// passes through both the 8-lane body and the scalar tail.
TEST(ActivationDifferentialTest, MatchesPerElementReferenceBitForBit) {
  const std::vector<float> inputs = EdgeInputs();
  util::Rng rng(77);
  std::vector<float> grads(inputs.size());
  for (float& g : grads) g = static_cast<float>(rng.Normal(0.0, 1.0));
  for (ActivationKind kind : kAllKinds) {
    const float a = 0.25f;
    for (int64_t n = 0; n <= 17; ++n) {
      const size_t step = static_cast<size_t>(n > 0 ? n : 1);
      for (size_t start = 0; start + step <= inputs.size(); start += step) {
        const std::vector<float> x(inputs.begin() + start,
                                   inputs.begin() + start + n);
        const std::vector<float> g(grads.begin() + start,
                                   grads.begin() + start + n);
        const std::string what = std::string(ActivationKindToString(kind)) +
                                 " n=" + std::to_string(n) +
                                 " start=" + std::to_string(start);
        ActivationLayer layer(kind, a);
        Tensor out, grad_in;
        layer.Forward(Tensor({n}, x), &out, /*training=*/true);
        ExpectSameBits(RefForward(kind, a, x), out, "Forward " + what);
        layer.Backward(Tensor({n}, g), &grad_in);
        float ref_slope_grad = 0.0f;
        ExpectSameBits(RefBackward(kind, a, x, g, &ref_slope_grad), grad_in,
                       "Backward " + what);
        if (kind == ActivationKind::kPReLU) {
          EXPECT_EQ(std::bit_cast<uint32_t>((*layer.Params()[0].grad)[0]),
                    std::bit_cast<uint32_t>(ref_slope_grad))
              << what;
        }
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Backward may be handed its own gradient buffer as the output.
TEST(ActivationDifferentialTest, TanhBackwardInPlace) {
  const std::vector<float> inputs = EdgeInputs();
  util::Rng rng(78);
  std::vector<float> grads(inputs.size());
  for (float& g : grads) g = static_cast<float>(rng.Normal(0.0, 1.0));
  const int64_t n = static_cast<int64_t>(inputs.size());
  ActivationLayer layer(ActivationKind::kTanh);
  Tensor out;
  layer.Forward(Tensor({n}, inputs), &out, /*training=*/true);
  Tensor g({n}, grads);
  layer.Backward(g, &g);
  float unused = 0.0f;
  ExpectSameBits(RefBackward(ActivationKind::kTanh, 0.0f, inputs, grads,
                             &unused),
                 g, "in-place Backward");
}

// Pins the h2 surrogate's architecture (9 -> 50 -> 50 -> 9, Tanh) end to
// end: the digest was taken from the per-element implementation and must
// not move, on every kernel path (they share one numeric contract). It
// holds on a glibc host, whose tanhf the tanh kernels reproduce.
TEST(ActivationDifferentialTest, H2MlpPredictDigestPinned) {
  MlpConfig cfg;
  cfg.input_dim = 9;
  cfg.hidden_dims = {50, 50};
  cfg.output_dim = 9;
  cfg.activation = ActivationKind::kTanh;
  cfg.seed = 7;
  Model model = BuildMlp(cfg);
  const Tensor batch = testing::RandomTensor({1024, 9}, 11, 2.0);
  testing::ForEachKernelPath([&] {
    const Tensor out = model.Predict(batch);
    EXPECT_EQ(testing::Digest(out), 0xdab1d82b1685238dull)
        << std::hex << "0x" << testing::Digest(out);
  });
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
