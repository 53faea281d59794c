#ifndef ERRORFLOW_NN_CONV2D_H_
#define ERRORFLOW_NN_CONV2D_H_

#include <memory>
#include <mutex>
#include <string>

#include "nn/layer.h"
#include "tensor/kernels.h"

namespace errorflow {
namespace nn {

/// \brief 2-D convolution layer (NCHW, square kernel, zero padding) with
/// full backprop and optional PSN.
///
/// Forward is one implicit-GEMM call, tensor::Conv2dKernel
/// (docs/PERFORMANCE.md, "Batched convolution execution"): it packs each
/// 16-column GEMM panel straight from the NCHW input (padded taps as +0),
/// runs each output's multiply-add chain over (ch, ky, kx) in order, adds
/// the bias once and stores straight into the NCHW output, so no column
/// matrix is built and no relayout runs. Outputs are bit-identical to
/// im2col + GemmKernel + `+ bias`. The operator-norm power iteration runs
/// the same kernel with no bias. The im2col column matrix
/// (C*K*K, N*OH*OW) is built only where a matrix is needed: a training
/// Forward caches it for Backward, and a CalibrationObserver receives it.
/// Backward runs one batched GemmNT for the weight gradient and one GemmTN
/// plus a sample-parallel col2im scatter for the input gradient.
/// Steady-state forward/backward performs no heap allocations: the kernel
/// and the inference-side column matrix use thread-local grow-only scratch
/// (so concurrent Forward calls on one folded layer stay lock-free), and
/// training keeps its buffers in the layer. Threaded results are
/// bit-identical to serial runs: each kernel chunk writes disjoint
/// outputs, and an element's arithmetic does not depend on the partition.
///
/// Under PSN the kernel is normalized by the *true operator norm* of the
/// convolution (power iteration over the actual conv / conv-transpose maps
/// at the spatial size seen in training, warm-started across steps), so
/// the layer's operator norm equals the learnable alpha — which is what
/// the error-flow bound consumes. The backward pass treats the norm as a
/// constant scale (the rank-1 Miyato correction is omitted for conv; the
/// dense layer keeps the exact correction).
class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(int64_t in_channels, int64_t out_channels, int kernel,
              int stride = 1, int padding = 0, bool use_psn = false);

  LayerKind kind() const override { return LayerKind::kConv2d; }
  std::string ToString() const override;

  /// He-uniform init for the kernel; zero bias; PSN alpha set to the initial
  /// matrix spectral norm so normalization starts as a no-op.
  void InitHe(uint64_t seed);

  void Forward(const Tensor& input, Tensor* output, bool training) override;
  void Backward(const Tensor& grad_output, Tensor* grad_input) override;
  std::vector<Param> Params() override;
  std::unique_ptr<Layer> Clone() const override;
  Shape OutputShape(const Shape& input_shape) const override;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int padding() const { return padding_; }
  bool use_psn() const { return use_psn_; }
  float alpha() const { return alpha_[0]; }
  void set_alpha(float a) { alpha_[0] = a; }

  /// Kernel as a matrix, shape (out_ch, in_ch * k * k).
  const Tensor& weight() const { return weight_; }
  Tensor& mutable_weight() { return weight_; }
  const Tensor& bias() const { return bias_; }
  Tensor& mutable_bias() { return bias_; }

  /// Effective (PSN-normalized) kernel matrix used in the forward pass.
  /// Without PSN this is a zero-copy reference to weight(); under PSN it
  /// references an internal cache overwritten by the next call, so on an
  /// unfolded layer it is single-threaded API — concurrent paths (Forward,
  /// the norm accessors, FoldPsn) snapshot internally under the layer
  /// mutex instead of reading this reference.
  const Tensor& EffectiveWeight() const;

  /// Bakes PSN into the stored kernel and disables it. Idempotent.
  void FoldPsn();

  /// True operator norm of this convolution acting on single-sample inputs
  /// of spatial size (h, w), via power iteration on conv / conv-transpose.
  double OperatorNorm(int64_t h, int64_t w) const;

 private:
  // Refreshes the operator-norm estimate at spatial size (h, w) with
  // warm-started power iteration on the raw kernel. Caller holds spec_mu_.
  void RefreshOpSigmaLocked(int64_t h, int64_t w, int iters) const;
  // Thread-safe snapshot of the PSN-normalized kernel matrix: refreshes the
  // operator norm (at the given spatial size, or the last-seen / default
  // size when h == 0) and returns (alpha/sigma) * W as a fresh tensor.
  Tensor PsnSnapshot(int64_t h, int64_t w, int iters) const;

  // This layer's geometry on n images of h x w.
  tensor::ConvGeometry Geometry(int64_t n, int64_t h, int64_t w) const;

  // Applies the convolution to one rank-3 (C,H,W) sample (flattened 1-D in
  // and out) with the effective weight; used by OperatorNorm.
  void ApplySingle(const Tensor& weight_mat, const Tensor& in_flat,
                   int64_t h, int64_t w, Tensor* out_flat) const;
  void ApplySingleTranspose(const Tensor& weight_mat, const Tensor& in_flat,
                            int64_t h, int64_t w, Tensor* out_flat) const;

  int64_t in_channels_;
  int64_t out_channels_;
  int kernel_;
  int stride_;
  int padding_;
  bool use_psn_;

  Tensor weight_;  // (out_ch, in_ch * k * k)
  Tensor bias_;    // (out_ch)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor alpha_;
  Tensor alpha_grad_;

  // spec_mu_ guards every mutable cache below so concurrent Forward /
  // norm queries on a shared layer instance are safe.
  mutable std::mutex spec_mu_;
  // PSN-normalized kernel returned by reference from EffectiveWeight().
  mutable Tensor eff_cache_;

  // Operator-norm cache (PSN): estimate, warm-start vector, and the
  // spatial size it was measured at.
  mutable double op_sigma_ = 0.0;
  mutable Tensor op_v_;
  mutable int64_t op_h_ = 0, op_w_ = 0;

  Tensor cached_input_;
  Tensor cached_eff_weight_;
  // Batched channel-major (C*K*K, N*OH*OW) column matrix saved by a
  // training Forward so Backward skips the im2col regather. Reused across
  // steps (reallocated only when the batch geometry changes).
  Tensor cached_cols_;

  // Backward-pass scratch (Backward consumes per-layer cached state, so it
  // is single-threaded per layer by contract; members are safe and keep
  // steady-state training allocation-free).
  Tensor bwd_gmat_;      // (out_ch, N*OH*OW) channel-major grad_output
  Tensor bwd_gcols_;     // (C*K*K, N*OH*OW) input-gradient columns
  Tensor bwd_grad_eff_;  // (out_ch, C*K*K) effective-weight gradient
  std::vector<double> bwd_bias_acc_;
};

}  // namespace nn
}  // namespace errorflow

#endif  // ERRORFLOW_NN_CONV2D_H_
