#include "nn/pool.h"

#include "tensor/kernels.h"

namespace errorflow {
namespace nn {

namespace {

// Runs body(plane_begin, plane_end) over n*c planes, fanned out on the
// shared kernel pool when `flops` crosses the threading threshold. Each
// plane is written by exactly one chunk, so threaded output is
// bit-identical to a serial run.
template <typename Body>
void ForEachPlane(int64_t planes, int64_t flops, const Body& body) {
  if (!tensor::KernelWillParallelize(flops)) {
    body(int64_t{0}, planes);
    return;
  }
  tensor::ParallelChunksKernel(
      planes, flops,
      [&body](int64_t p0, int64_t p1) { body(p0, p1); });
}

}  // namespace

void GlobalAvgPoolLayer::Forward(const Tensor& input, Tensor* output,
                                 bool training) {
  EF_CHECK(input.ndim() == 4);
  const int64_t n = input.dim(0), c = input.dim(1),
                hw = input.dim(2) * input.dim(3);
  if (!output->HasShape({n, c})) *output = Tensor({n, c});
  const float inv = 1.0f / static_cast<float>(hw);
  const float* in = input.data();
  float* out = output->data();
  ForEachPlane(n * c, n * c * hw, [=](int64_t p0, int64_t p1) {
    for (int64_t plane = p0; plane < p1; ++plane) {
      const float* src = in + plane * hw;
      float acc = 0.0f;
      for (int64_t i = 0; i < hw; ++i) acc += src[i];
      out[plane] = acc * inv;
    }
  });
  if (training) cached_input_shape_ = input.shape();
}

void GlobalAvgPoolLayer::Backward(const Tensor& grad_output,
                                  Tensor* grad_input) {
  const Shape& in_shape = cached_input_shape_;
  if (grad_input->shape() != in_shape) *grad_input = Tensor(in_shape);
  const int64_t n = in_shape[0], c = in_shape[1],
                hw = in_shape[2] * in_shape[3];
  const float inv = 1.0f / static_cast<float>(hw);
  const float* go = grad_output.data();
  float* gi = grad_input->data();
  ForEachPlane(n * c, n * c * hw, [=](int64_t p0, int64_t p1) {
    for (int64_t plane = p0; plane < p1; ++plane) {
      const float g = go[plane] * inv;
      float* dst = gi + plane * hw;
      for (int64_t i = 0; i < hw; ++i) dst[i] = g;
    }
  });
}

std::unique_ptr<Layer> GlobalAvgPoolLayer::Clone() const {
  return std::make_unique<GlobalAvgPoolLayer>();
}

Shape GlobalAvgPoolLayer::OutputShape(const Shape& s) const {
  EF_CHECK(s.size() == 4);
  return {s[0], s[1]};
}

}  // namespace nn
}  // namespace errorflow
