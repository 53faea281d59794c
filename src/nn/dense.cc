#include "nn/dense.h"

#include <cmath>

#include "nn/calibration.h"
#include "tensor/norms.h"
#include "tensor/ops.h"
#include "util/random.h"
#include "util/string_util.h"

namespace errorflow {
namespace nn {

DenseLayer::DenseLayer(int64_t in_features, int64_t out_features,
                       bool use_psn)
    : in_features_(in_features),
      out_features_(out_features),
      use_psn_(use_psn),
      weight_({out_features, in_features}),
      bias_({out_features}),
      weight_grad_({out_features, in_features}),
      bias_grad_({out_features}),
      alpha_({1}, {1.0f}),
      alpha_grad_({1}, {0.0f}) {}

std::string DenseLayer::ToString() const {
  return util::StrFormat("Dense(%lld -> %lld%s)",
                         static_cast<long long>(in_features_),
                         static_cast<long long>(out_features_),
                         use_psn_ ? ", psn" : "");
}

void DenseLayer::InitXavier(uint64_t seed) {
  util::Rng rng(seed);
  const float limit = std::sqrt(
      6.0f / static_cast<float>(in_features_ + out_features_));
  for (int64_t i = 0; i < weight_.size(); ++i) {
    weight_[i] = static_cast<float>(rng.Uniform(-limit, limit));
  }
  bias_.Fill(0.0f);
  std::lock_guard<std::mutex> lock(spec_mu_);
  spec_valid_ = false;
  if (use_psn_) {
    RefreshSigmaLocked(200);
    alpha_[0] = static_cast<float>(spec_.sigma);  // Initially a no-op.
  }
}

void DenseLayer::RefreshSigmaLocked(int iters) const {
  const Tensor* warm = spec_valid_ ? &spec_.v : nullptr;
  spec_ = PowerIteration(weight_, iters, 1e-10, /*seed=*/7, warm);
  spec_valid_ = true;
}

Tensor DenseLayer::PsnSnapshot(int refresh_iters_warm,
                               int refresh_iters_cold) const {
  std::lock_guard<std::mutex> lock(spec_mu_);
  RefreshSigmaLocked(spec_valid_ ? refresh_iters_warm : refresh_iters_cold);
  Tensor eff = weight_;
  const double sigma = std::max(spec_.sigma, 1e-20);
  tensor::Scale(&eff, static_cast<float>(alpha_[0] / sigma));
  return eff;
}

const Tensor& DenseLayer::EffectiveWeight() const {
  if (!use_psn_) return weight_;
  Tensor eff = PsnSnapshot(/*refresh_iters_warm=*/4,
                           /*refresh_iters_cold=*/200);
  std::lock_guard<std::mutex> lock(spec_mu_);
  eff_cache_ = std::move(eff);
  return eff_cache_;
}

void DenseLayer::FoldPsn() {
  if (!use_psn_) return;
  weight_ = PsnSnapshot(/*refresh_iters_warm=*/4, /*refresh_iters_cold=*/200);
  use_psn_ = false;
  std::lock_guard<std::mutex> lock(spec_mu_);
  spec_valid_ = false;
}

double DenseLayer::SpectralNorm() const {
  if (use_psn_) return alpha_[0];
  std::lock_guard<std::mutex> lock(spec_mu_);
  RefreshSigmaLocked(spec_valid_ ? 8 : 300);
  return spec_.sigma;
}

void DenseLayer::Forward(const Tensor& input, Tensor* output,
                         bool training) {
  EF_CHECK(input.ndim() == 2 && input.dim(1) == in_features_);
  if (CalibrationObserver* obs = GetCalibrationObserver()) {
    obs->OnLinearInput(this, input.data(), in_features_, input.dim(0),
                       /*features_are_rows=*/false);
  }
  if (!use_psn_) {
    // Hot path: the stored weight is the effective weight; no copy, no
    // shared-state mutation, safe under concurrent execution.
    tensor::GemmNT(input, weight_, output, &bias_);
    if (training) cached_input_ = input;
    return;
  }
  Tensor eff = PsnSnapshot(/*refresh_iters_warm=*/4,
                           /*refresh_iters_cold=*/200);
  tensor::GemmNT(input, eff, output, &bias_);
  if (training) {
    cached_input_ = input;
    cached_eff_weight_ = std::move(eff);
  }
}

void DenseLayer::Backward(const Tensor& grad_output, Tensor* grad_input) {
  const Tensor& x = cached_input_;
  EF_CHECK(grad_output.ndim() == 2 && grad_output.dim(1) == out_features_ &&
           x.dim(0) == grad_output.dim(0));

  // Gradient w.r.t. the *effective* weight: G_eff = grad_out^T * x.
  Tensor grad_eff({out_features_, in_features_});
  tensor::GemmTN(grad_output, x, &grad_eff);

  // Bias gradient: column sums of grad_output.
  const int64_t batch = grad_output.dim(0);
  for (int64_t i = 0; i < batch; ++i) {
    for (int64_t j = 0; j < out_features_; ++j) {
      bias_grad_[j] += grad_output.at(i, j);
    }
  }

  if (!use_psn_) {
    tensor::Add(weight_grad_, grad_eff, &weight_grad_);
  } else {
    std::lock_guard<std::mutex> lock(spec_mu_);
    // W_eff = (alpha / sigma) * W with sigma = u^T W v (power iteration).
    // Following Miyato et al., treat u, v as constants:
    //   dL/dalpha = <G_eff, W/sigma>
    //   dL/dW     = (alpha/sigma) * (G_eff - <G_eff, W/sigma> * u v^T / alpha
    //                * alpha)  -- i.e. G_eff minus its component along uv^T
    // Concretely with What = W / sigma:
    //   dL/dW = (alpha/sigma) * (G_eff - <G_eff, What> u v^T)
    const double sigma = std::max(spec_.sigma, 1e-20);
    const float a = alpha_[0];
    double inner = 0.0;  // <G_eff, W/sigma>
    for (int64_t i = 0; i < grad_eff.size(); ++i) {
      inner += static_cast<double>(grad_eff[i]) *
               (static_cast<double>(weight_[i]) / sigma);
    }
    alpha_grad_[0] += static_cast<float>(inner);
    const float scale = static_cast<float>(a / sigma);
    const float corr = static_cast<float>(inner);
    for (int64_t r = 0; r < out_features_; ++r) {
      for (int64_t c = 0; c < in_features_; ++c) {
        const float rank1 = spec_.u[r] * spec_.v[c];
        weight_grad_.at(r, c) +=
            scale * (grad_eff.at(r, c) - corr * rank1);
      }
    }
    spec_valid_ = true;  // Warm start next refresh; weights moved a little.
  }

  // Gradient w.r.t. input: grad_in = grad_out * W_eff. Without PSN the
  // effective weight is the stored weight (not separately cached).
  tensor::Gemm(grad_output, use_psn_ ? cached_eff_weight_ : weight_,
               grad_input);
}

std::vector<Param> DenseLayer::Params() {
  std::vector<Param> params = {
      Param{"weight", &weight_, &weight_grad_, /*decay=*/true},
      Param{"bias", &bias_, &bias_grad_, /*decay=*/false},
  };
  if (use_psn_) {
    params.push_back(Param{"alpha", &alpha_, &alpha_grad_, /*decay=*/false});
  }
  return params;
}

std::unique_ptr<Layer> DenseLayer::Clone() const {
  auto copy =
      std::make_unique<DenseLayer>(in_features_, out_features_, use_psn_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  copy->alpha_ = alpha_;
  return copy;
}

Shape DenseLayer::OutputShape(const Shape& input_shape) const {
  EF_CHECK(input_shape.size() == 2);
  return {input_shape[0], out_features_};
}

}  // namespace nn
}  // namespace errorflow
