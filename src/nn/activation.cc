#include "nn/activation.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "tensor/kernels.h"
#include "util/string_util.h"

namespace errorflow {
namespace nn {

namespace {

// y[i] = f(x[i]). GCC's -O2 vectorizer takes a loop only when it needs
// neither an alias check nor a scalar epilogue, hence __restrict and a main
// loop whose trip count is a multiple of 8.
template <typename F>
void Map(const float* __restrict x, float* __restrict y, int64_t n, F f) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; ++i) y[i] = f(x[i]);
  for (int64_t i = n8; i < n; ++i) y[i] = f(x[i]);
}

}  // namespace

const char* ActivationKindToString(ActivationKind kind) {
  switch (kind) {
    case ActivationKind::kReLU:
      return "ReLU";
    case ActivationKind::kPReLU:
      return "PReLU";
    case ActivationKind::kTanh:
      return "Tanh";
  }
  return "Unknown";
}

ActivationLayer::ActivationLayer(ActivationKind kind, float leaky_slope)
    : kind_(kind),
      slope_({1}, {leaky_slope}),
      slope_grad_({1}, {0.0f}) {}

std::string ActivationLayer::ToString() const {
  return util::StrFormat("Activation(%s)", ActivationKindToString(kind_));
}

// One loop per kind: the switch sits outside the element loop, so the
// ReLU-family loops vectorize, and Tanh runs the lane-wise kernel (which is
// bit-identical to std::tanh). `output` is never `&input`: layers are run
// with separate input and output buffers.
void ActivationLayer::Forward(const Tensor& input, Tensor* output,
                              bool training) {
  if (training) cached_input_ = input;
  if (output->shape() != input.shape()) *output = Tensor(input.shape());
  const int64_t n = input.size();
  const float* x = input.data();
  float* y = output->data();
  const float a = slope_[0];
  switch (kind_) {
    case ActivationKind::kReLU:
      Map(x, y, n, [](float v) { return v > 0.0f ? v : 0.0f; });
      return;
    case ActivationKind::kPReLU:
      // v > 0 ? v : a * v as a bit blend: -O2 does not if-convert a select
      // whose arm can raise a floating-point exception, but it vectorizes
      // this.
      Map(x, y, n, [a](float v) {
        const uint32_t keep = 0u - static_cast<uint32_t>(v > 0.0f);
        return std::bit_cast<float>((std::bit_cast<uint32_t>(v) & keep) |
                                    (std::bit_cast<uint32_t>(a * v) & ~keep));
      });
      return;
    case ActivationKind::kTanh:
      tensor::TanhKernel(x, y, n);
      return;
  }
}

void ActivationLayer::Backward(const Tensor& grad_output,
                               Tensor* grad_input) {
  EF_CHECK(grad_output.size() == cached_input_.size());
  if (grad_input->shape() != cached_input_.shape()) {
    *grad_input = Tensor(cached_input_.shape());
  }
  const int64_t n = cached_input_.size();
  const float* x = cached_input_.data();
  const float* g = grad_output.data();
  float* gi = grad_input->data();
  const float a = slope_[0];
  switch (kind_) {
    case ActivationKind::kReLU:
      for (int64_t i = 0; i < n; ++i) {
        gi[i] = g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
      }
      return;
    case ActivationKind::kPReLU: {
      double slope_grad = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float xv = x[i];
        gi[i] = g[i] * (xv > 0.0f ? 1.0f : a);
        if (xv <= 0.0f) slope_grad += static_cast<double>(g[i]) * xv;
      }
      slope_grad_[0] += static_cast<float>(slope_grad);
      return;
    }
    case ActivationKind::kTanh: {
      // tanh(x) in stack-sized blocks, so grad_input may alias grad_output.
      constexpr int64_t kBlock = 256;
      float t[kBlock];
      for (int64_t i0 = 0; i0 < n; i0 += kBlock) {
        const int64_t len = std::min(kBlock, n - i0);
        tensor::TanhKernel(x + i0, t, len);
        for (int64_t i = 0; i < len; ++i) {
          gi[i0 + i] = g[i0 + i] * (1.0f - t[i] * t[i]);
        }
      }
      return;
    }
  }
}

std::vector<Param> ActivationLayer::Params() {
  if (kind_ != ActivationKind::kPReLU) return {};
  return {Param{"slope", &slope_, &slope_grad_, /*decay=*/false}};
}

std::unique_ptr<Layer> ActivationLayer::Clone() const {
  auto copy = std::make_unique<ActivationLayer>(kind_, slope_[0]);
  return copy;
}

void ActivationLayer::ClampSlope() {
  slope_[0] = std::min(1.0f, std::max(0.0f, slope_[0]));
}

}  // namespace nn
}  // namespace errorflow
