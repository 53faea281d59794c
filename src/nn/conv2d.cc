#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/calibration.h"
#include "nn/spectral.h"
#include "tensor/kernels.h"
#include "tensor/norms.h"
#include "tensor/ops.h"
#include "util/random.h"
#include "util/string_util.h"

namespace errorflow {
namespace nn {

namespace {

// Thread-local grow-only column matrix for the calibration observer and
// the operator-norm transpose: those paths must be lock-free across
// threads sharing one layer AND allocation-free in steady state, so each
// calling thread keeps its own buffer, grown monotonically.
std::vector<float>& LocalCols() {
  static thread_local std::vector<float> cols;
  return cols;
}

float* GrowBuffer(std::vector<float>* buf, int64_t n) {
  if (static_cast<int64_t>(buf->size()) < n) buf->resize(static_cast<size_t>(n));
  return buf->data();
}

// Valid output-x range for a kernel column: every ox in [lo, hi) reads an
// in-bounds ix = ox * s + kx - p.
int64_t OxLo(int kx, int s, int p) {
  const int64_t a = p - kx;
  return a <= 0 ? 0 : (a + s - 1) / s;
}

int64_t OxHi(int64_t w, int64_t ow, int kx, int s, int p) {
  const int64_t a = w - 1 + p - kx;
  return a < 0 ? 0 : std::min<int64_t>(ow, a / s + 1);
}

// Gathers one (C,H,W) sample into the channel-major (Caffe-layout) column
// matrix: row r = (ch*K + ky)*K + kx holds that tap's value for every
// output pixel, so for stride 1 each (row, oy) is one contiguous OW-float
// memcpy and border clipping is hoisted out of the pixel loop entirely.
// `cols` points at this sample's first column; rows are `col_stride` apart
// (the batched matrix interleaves samples along the column axis).
void Im2ColSample(const float* in, int64_t c, int64_t h, int64_t w, int k,
                  int s, int p, int64_t oh, int64_t ow, float* cols,
                  int64_t col_stride) {
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* plane = in + ch * h * w;
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        float* dst = cols + ((ch * k + ky) * k + kx) * col_stride;
        const int64_t ox_lo = OxLo(kx, s, p);
        const int64_t ox_hi = OxHi(w, ow, kx, s, p);
        for (int64_t oy = 0; oy < oh; ++oy, dst += ow) {
          const int64_t iy = oy * s + ky - p;
          if (iy < 0 || iy >= h || ox_hi <= ox_lo) {
            std::memset(dst, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          if (ox_lo > 0) {
            std::memset(dst, 0, static_cast<size_t>(ox_lo) * sizeof(float));
          }
          const float* src = plane + iy * w + kx - p;
          if (s == 1) {
            std::memcpy(dst + ox_lo, src + ox_lo,
                        static_cast<size_t>(ox_hi - ox_lo) * sizeof(float));
          } else {
            for (int64_t ox = ox_lo; ox < ox_hi; ++ox) dst[ox] = src[ox * s];
          }
          if (ox_hi < ow) {
            std::memset(dst + ox_hi, 0,
                        static_cast<size_t>(ow - ox_hi) * sizeof(float));
          }
        }
      }
    }
  }
}

// Scatter-adds one sample's channel-major gradient columns back into its
// (C,H,W) gradient block, mirroring Im2ColSample's clipped runs. `out`
// must be zeroed by the caller.
void Col2ImSample(const float* cols, int64_t col_stride, int64_t c,
                  int64_t h, int64_t w, int k, int s, int p, int64_t oh,
                  int64_t ow, float* out) {
  for (int64_t ch = 0; ch < c; ++ch) {
    float* plane = out + ch * h * w;
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        const float* src = cols + ((ch * k + ky) * k + kx) * col_stride;
        const int64_t ox_lo = OxLo(kx, s, p);
        const int64_t ox_hi = OxHi(w, ow, kx, s, p);
        if (ox_hi <= ox_lo) continue;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * s + ky - p;
          if (iy < 0 || iy >= h) continue;
          float* __restrict d = plane + iy * w + kx - p;
          const float* __restrict g = src + oy * ow;
          if (s == 1) {
            for (int64_t ox = ox_lo; ox < ox_hi; ++ox) d[ox] += g[ox];
          } else {
            for (int64_t ox = ox_lo; ox < ox_hi; ++ox) d[ox * s] += g[ox];
          }
        }
      }
    }
  }
}

// Batched im2col: samples [0, n) gathered sample-parallel on the shared
// kernel pool into the (C*K*K, N*OH*OW) column matrix. Gated on the FLOP
// count of the GEMM the columns feed — when that GEMM fans out, threading
// its producer is free; below the threshold nothing here is worth a
// dispatch either. Each sample writes a disjoint column block, so threaded
// output is bit-identical to serial.
void Im2ColBatch(const float* in, int64_t n, int64_t c, int64_t h, int64_t w,
                 int k, int s, int p, int64_t oh, int64_t ow,
                 int64_t gemm_flops, float* cols) {
  const int64_t chw = c * h * w;
  const int64_t ohow = oh * ow;
  const int64_t col_stride = n * ohow;
  if (!tensor::KernelWillParallelize(gemm_flops)) {
    for (int64_t img = 0; img < n; ++img) {
      Im2ColSample(in + img * chw, c, h, w, k, s, p, oh, ow,
                   cols + img * ohow, col_stride);
    }
    return;
  }
  tensor::ParallelChunksKernel(
      n, gemm_flops, [=](int64_t s0, int64_t s1) {
        for (int64_t img = s0; img < s1; ++img) {
          Im2ColSample(in + img * chw, c, h, w, k, s, p, oh, ow,
                       cols + img * ohow, col_stride);
        }
      });
}

}  // namespace

Conv2dLayer::Conv2dLayer(int64_t in_channels, int64_t out_channels,
                         int kernel, int stride, int padding, bool use_psn)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      use_psn_(use_psn),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels * kernel * kernel}),
      bias_grad_({out_channels}),
      alpha_({1}, {1.0f}),
      alpha_grad_({1}, {0.0f}) {}

std::string Conv2dLayer::ToString() const {
  return util::StrFormat(
      "Conv2d(%lld -> %lld, k=%d, s=%d, p=%d%s)",
      static_cast<long long>(in_channels_),
      static_cast<long long>(out_channels_), kernel_, stride_, padding_,
      use_psn_ ? ", psn" : "");
}

void Conv2dLayer::InitHe(uint64_t seed) {
  util::Rng rng(seed);
  const int64_t fan_in = in_channels_ * kernel_ * kernel_;
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in));
  for (int64_t i = 0; i < weight_.size(); ++i) {
    weight_[i] = static_cast<float>(rng.Uniform(-limit, limit));
  }
  bias_.Fill(0.0f);
  std::lock_guard<std::mutex> lock(spec_mu_);
  op_sigma_ = 0.0;
  if (use_psn_) {
    // Initialize alpha to the operator norm (8x8 heuristic; refined at the
    // first Forward) so PSN starts as a no-op.
    RefreshOpSigmaLocked(8, 8, 80);
    alpha_[0] = static_cast<float>(op_sigma_);
  }
}

namespace {
double NormalizeUnit(Tensor* t) {
  const double n = tensor::L2Norm(*t);
  if (n > 0.0) {
    const float inv = static_cast<float>(1.0 / n);
    for (int64_t i = 0; i < t->size(); ++i) (*t)[i] *= inv;
  }
  return n;
}
}  // namespace

void Conv2dLayer::RefreshOpSigmaLocked(int64_t h, int64_t w,
                                       int iters) const {
  const int64_t n_in = in_channels_ * h * w;
  if (op_h_ != h || op_w_ != w || op_v_.size() != n_in) {
    util::Rng rng(13);
    op_v_ = Tensor({n_in});
    for (int64_t i = 0; i < n_in; ++i) {
      op_v_[i] = static_cast<float>(rng.Normal());
    }
    NormalizeUnit(&op_v_);
    op_h_ = h;
    op_w_ = w;
    iters = std::max(iters, 60);
  }
  Tensor u, back;
  for (int it = 0; it < iters; ++it) {
    ApplySingle(weight_, op_v_, h, w, &u);
    NormalizeUnit(&u);
    ApplySingleTranspose(weight_, u, h, w, &back);
    NormalizeUnit(&back);
    op_v_ = back;
  }
  ApplySingle(weight_, op_v_, h, w, &u);
  op_sigma_ = tensor::L2Norm(u);
}

Tensor Conv2dLayer::PsnSnapshot(int64_t h, int64_t w, int iters) const {
  std::lock_guard<std::mutex> lock(spec_mu_);
  if (h > 0) {
    RefreshOpSigmaLocked(h, w, iters);
  } else if (op_sigma_ <= 0.0) {
    // No spatial context yet (standalone profiling): default square size
    // heuristic, matching the seed behavior.
    RefreshOpSigmaLocked(/*h=*/8, /*w=*/8, 80);
  }
  Tensor eff = weight_;
  const double sigma = std::max(op_sigma_, 1e-20);
  tensor::Scale(&eff, static_cast<float>(alpha_[0] / sigma));
  return eff;
}

const Tensor& Conv2dLayer::EffectiveWeight() const {
  if (!use_psn_) return weight_;
  // Use the operator norm at the last-seen spatial size (h = 0).
  Tensor eff = PsnSnapshot(/*h=*/0, /*w=*/0, /*iters=*/0);
  std::lock_guard<std::mutex> lock(spec_mu_);
  eff_cache_ = std::move(eff);
  return eff_cache_;
}

void Conv2dLayer::FoldPsn() {
  if (!use_psn_) return;
  weight_ = PsnSnapshot(/*h=*/0, /*w=*/0, /*iters=*/0);
  use_psn_ = false;
  std::lock_guard<std::mutex> lock(spec_mu_);
  op_sigma_ = 0.0;
}

void Conv2dLayer::Forward(const Tensor& input, Tensor* output,
                          bool training) {
  EF_CHECK(input.ndim() == 4 && input.dim(1) == in_channels_);
  const int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const tensor::ConvGeometry geom = Geometry(n, h, w);
  const int64_t oh = geom.oh(), ow = geom.ow();
  EF_CHECK(oh > 0 && ow > 0);
  if (!output->HasShape({n, out_channels_, oh, ow})) {
    *output = Tensor({n, out_channels_, oh, ow});
  }
  Tensor psn_eff;
  const Tensor* eff = &weight_;
  if (use_psn_) {
    // Track the operator norm at the actual spatial size; two warm-started
    // iterations per step keep it current as the weights move. The
    // snapshot is a private copy, so concurrent Forward calls never share
    // a mutating effective-weight buffer.
    bool warm;
    {
      std::lock_guard<std::mutex> lock(spec_mu_);
      warm = op_h_ == h && op_w_ == w && op_sigma_ > 0.0;
    }
    psn_eff = PsnSnapshot(h, w, warm ? (training ? 2 : 30) : 80);
    eff = &psn_eff;
  }

  // Implicit GEMM straight from the NCHW input into the NCHW output, bias
  // folded into the store. Training also gathers the column matrix, which
  // Backward consumes; a calibration observer gets the same matrix.
  const int64_t cols_n = n * oh * ow;
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t gemm_flops = 2 * cols_n * out_channels_ * ckk;
  CalibrationObserver* obs = GetCalibrationObserver();
  if (training || obs != nullptr) {
    float* cols;
    if (training) {
      if (!cached_cols_.HasShape({ckk, cols_n})) {
        cached_cols_ = Tensor({ckk, cols_n});
      }
      cols = cached_cols_.data();
    } else {
      cols = GrowBuffer(&LocalCols(), ckk * cols_n);
    }
    Im2ColBatch(input.data(), n, in_channels_, h, w, kernel_, stride_,
                padding_, oh, ow, gemm_flops, cols);
    if (obs != nullptr) {
      // The column matrix is exactly what the convolution multiplies the
      // kernel matrix against — the right Gram basis for data-driven
      // quantization.
      obs->OnLinearInput(this, cols, ckk, cols_n, /*features_are_rows=*/true);
    }
  }
  tensor::Conv2dKernel(eff->data(), bias_.data(), input.data(),
                       output->data(), geom);
  if (training) {
    cached_input_ = input;
    if (use_psn_) cached_eff_weight_ = std::move(psn_eff);
  }
}

void Conv2dLayer::Backward(const Tensor& grad_output, Tensor* grad_input) {
  const Tensor& x = cached_input_;
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  if (grad_input->shape() != x.shape()) *grad_input = Tensor(x.shape());

  const int64_t ohow = oh * ow;
  const int64_t cols_n = n * ohow;
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t chw = in_channels_ * h * w;
  const int64_t sample_out = out_channels_ * ohow;
  const int64_t gemm_flops = 2 * cols_n * out_channels_ * ckk;

  // Channel-major view of grad_output: (out_ch, N*OH*OW), matching the
  // column matrix. Each (img, oc) plane is one contiguous memcpy.
  if (!bwd_gmat_.HasShape({out_channels_, cols_n})) {
    bwd_gmat_ = Tensor({out_channels_, cols_n});
  }
  float* gmat = bwd_gmat_.data();
  const float* go = grad_output.data();
  const int64_t out_ch = out_channels_;
  auto gather = [=](int64_t s0, int64_t s1) {
    for (int64_t img = s0; img < s1; ++img) {
      for (int64_t oc = 0; oc < out_ch; ++oc) {
        std::memcpy(gmat + oc * cols_n + img * ohow,
                    go + img * sample_out + oc * ohow,
                    static_cast<size_t>(ohow) * sizeof(float));
      }
    }
  };
  if (!tensor::KernelWillParallelize(gemm_flops)) {
    gather(0, n);
  } else {
    tensor::ParallelChunksKernel(n, gemm_flops, gather);
  }

  // Bias grads: per-channel double accumulation straight off grad_output's
  // channel-major layout (contiguous per-plane sums).
  if (static_cast<int64_t>(bwd_bias_acc_.size()) < out_channels_) {
    bwd_bias_acc_.resize(static_cast<size_t>(out_channels_));
  }
  std::fill(bwd_bias_acc_.begin(), bwd_bias_acc_.end(), 0.0);
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float* plane = go + img * sample_out + oc * ohow;
      double acc = 0.0;
      for (int64_t pix = 0; pix < ohow; ++pix) acc += plane[pix];
      bwd_bias_acc_[static_cast<size_t>(oc)] += acc;
    }
  }
  for (int64_t oc = 0; oc < out_channels_; ++oc) {
    bias_grad_[oc] += static_cast<float>(bwd_bias_acc_[static_cast<size_t>(oc)]);
  }

  // Column matrix: normally cached by the training Forward; regathered
  // defensively if a caller invokes Backward with stale geometry.
  if (!cached_cols_.HasShape({ckk, cols_n})) {
    cached_cols_ = Tensor({ckk, cols_n});
    Im2ColBatch(x.data(), n, in_channels_, h, w, kernel_, stride_, padding_,
                oh, ow, gemm_flops, cached_cols_.data());
  }

  // Weight gradient in one batched GemmNT over all samples' pixels:
  // dW (out_ch, C*K*K) = G (out_ch, N*OH*OW) x cols^T.
  if (!bwd_grad_eff_.HasShape({out_channels_, ckk})) {
    bwd_grad_eff_ = Tensor({out_channels_, ckk});
  }
  tensor::GemmNTKernel(gmat, cached_cols_.data(), bwd_grad_eff_.data(),
                       out_channels_, ckk, cols_n, /*bias=*/nullptr);
  const Tensor& grad_eff = bwd_grad_eff_;

  // Input gradient: one batched GemmTN into channel-major gradient columns
  // (C*K*K, N*OH*OW) = W_eff^T x G, then a sample-parallel col2im scatter
  // (each sample zeroes and owns its own (C,H,W) block, so threaded ==
  // serial bit-for-bit).
  if (!bwd_gcols_.HasShape({ckk, cols_n})) {
    bwd_gcols_ = Tensor({ckk, cols_n});
  }
  const Tensor& w_eff = use_psn_ ? cached_eff_weight_ : weight_;
  tensor::GemmTNKernel(w_eff.data(), gmat, bwd_gcols_.data(), ckk, cols_n,
                       out_channels_);
  const float* gcols = bwd_gcols_.data();
  float* gin = grad_input->data();
  const int kernel = kernel_, stride = stride_, padding = padding_;
  const int64_t in_ch = in_channels_;
  auto scatter = [=](int64_t s0, int64_t s1) {
    for (int64_t img = s0; img < s1; ++img) {
      float* dst = gin + img * chw;
      std::memset(dst, 0, static_cast<size_t>(chw) * sizeof(float));
      Col2ImSample(gcols + img * ohow, cols_n, in_ch, h, w, kernel, stride,
                   padding, oh, ow, dst);
    }
  };
  if (!tensor::KernelWillParallelize(gemm_flops)) {
    scatter(0, n);
  } else {
    tensor::ParallelChunksKernel(n, gemm_flops, scatter);
  }

  if (!use_psn_) {
    tensor::Add(weight_grad_, grad_eff, &weight_grad_);
  } else {
    // Operator-norm PSN: treat sigma as a constant scale in backward (the
    // exact correction is a rank-1 term in the linearized-operator space;
    // omitting it biases alpha slightly but keeps training stable).
    std::lock_guard<std::mutex> lock(spec_mu_);
    const double sigma = std::max(op_sigma_, 1e-20);
    const float a = alpha_[0];
    double inner = 0.0;
    for (int64_t i = 0; i < grad_eff.size(); ++i) {
      inner += static_cast<double>(grad_eff[i]) *
               (static_cast<double>(weight_[i]) / sigma);
    }
    alpha_grad_[0] += static_cast<float>(inner);
    const float scale = static_cast<float>(a / sigma);
    for (int64_t i = 0; i < weight_grad_.size(); ++i) {
      weight_grad_[i] += scale * grad_eff[i];
    }
  }
}

std::vector<Param> Conv2dLayer::Params() {
  std::vector<Param> params = {
      Param{"weight", &weight_, &weight_grad_, /*decay=*/true},
      Param{"bias", &bias_, &bias_grad_, /*decay=*/false},
  };
  if (use_psn_) {
    params.push_back(Param{"alpha", &alpha_, &alpha_grad_, /*decay=*/false});
  }
  return params;
}

std::unique_ptr<Layer> Conv2dLayer::Clone() const {
  auto copy = std::make_unique<Conv2dLayer>(
      in_channels_, out_channels_, kernel_, stride_, padding_, use_psn_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  copy->alpha_ = alpha_;
  return copy;
}

tensor::ConvGeometry Conv2dLayer::Geometry(int64_t n, int64_t h,
                                           int64_t w) const {
  return tensor::ConvGeometry{n,        in_channels_, h,      w,
                              out_channels_, kernel_,   stride_, padding_};
}

Shape Conv2dLayer::OutputShape(const Shape& input_shape) const {
  EF_CHECK(input_shape.size() == 4);
  const tensor::ConvGeometry geom =
      Geometry(input_shape[0], input_shape[2], input_shape[3]);
  return {input_shape[0], out_channels_, geom.oh(), geom.ow()};
}

void Conv2dLayer::ApplySingle(const Tensor& weight_mat, const Tensor& in_flat,
                              int64_t h, int64_t w, Tensor* out_flat) const {
  const tensor::ConvGeometry geom = Geometry(/*n=*/1, h, w);
  const int64_t n_out = out_channels_ * geom.oh() * geom.ow();
  if (out_flat->ndim() != 1 || out_flat->dim(0) != n_out) {
    *out_flat = Tensor({n_out});
  }
  // The flattened (out_ch, OH*OW) activation is one NCHW image. No bias.
  tensor::Conv2dKernel(weight_mat.data(), /*bias=*/nullptr, in_flat.data(),
                       out_flat->data(), geom);
}

void Conv2dLayer::ApplySingleTranspose(const Tensor& weight_mat,
                                       const Tensor& in_flat, int64_t h,
                                       int64_t w, Tensor* out_flat) const {
  const tensor::ConvGeometry geom = Geometry(/*n=*/1, h, w);
  const int64_t oh = geom.oh(), ow = geom.ow();
  const int64_t ohow = oh * ow;
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  // The flattened (out_ch, OH*OW) input is already channel-major, so it
  // feeds the GemmTN directly — no transpose.
  float* gcols = GrowBuffer(&LocalCols(), ckk * ohow);
  tensor::GemmTNKernel(weight_mat.data(), in_flat.data(), gcols, ckk, ohow,
                       out_channels_);
  if (out_flat->ndim() != 1 || out_flat->dim(0) != in_channels_ * h * w) {
    *out_flat = Tensor({in_channels_ * h * w});
  }
  std::memset(out_flat->data(), 0,
              static_cast<size_t>(in_channels_ * h * w) * sizeof(float));
  Col2ImSample(gcols, /*col_stride=*/ohow, in_channels_, h, w, kernel_,
               stride_, padding_, oh, ow, out_flat->data());
}

double Conv2dLayer::OperatorNorm(int64_t h, int64_t w) const {
  Tensor psn_eff;
  if (use_psn_) psn_eff = PsnSnapshot(/*h=*/0, /*w=*/0, /*iters=*/0);
  const Tensor& eff = use_psn_ ? psn_eff : weight_;
  const int64_t n_in = in_channels_ * h * w;
  auto fwd = [&](const Tensor& v, Tensor* out) {
    ApplySingle(eff, v, h, w, out);
  };
  auto tr = [&](const Tensor& u, Tensor* out) {
    ApplySingleTranspose(eff, u, h, w, out);
  };
  return PowerIterationOp(fwd, tr, n_in, 120, 1e-8, /*seed=*/5).sigma;
}

}  // namespace nn
}  // namespace errorflow
