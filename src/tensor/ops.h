#ifndef ERRORFLOW_TENSOR_OPS_H_
#define ERRORFLOW_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace errorflow {
namespace tensor {

/// C = A(m x k) * B(k x n). Backed by the compute-kernel layer
/// (tensor/kernels.h): cache-blocked, SIMD-dispatched micro-kernels with
/// size-thresholded multithreading over a shared util::ThreadPool.
void Gemm(const Tensor& a, const Tensor& b, Tensor* c);

/// C = A(m x k) * B^T where B is (n x k), plus a length-n `bias` on every
/// row when one is given (added in the kernel's store; GemmNTKernel).
/// Weight matrices are stored as (out x in), so the forward pass of a dense
/// layer is `GemmNT(x, W, &z, &b)`.
void GemmNT(const Tensor& a, const Tensor& b, Tensor* c,
            const Tensor* bias = nullptr);

/// C = A^T(k x m) * B(k x n); used by backprop for weight gradients.
void GemmTN(const Tensor& a, const Tensor& b, Tensor* c);

/// y = W(m x n) * x(n); single-vector projection used by power iteration.
void Gemv(const Tensor& w, const Tensor& x, Tensor* y);

/// y = W^T(m x n) * x(m).
void GemvT(const Tensor& w, const Tensor& x, Tensor* y);

/// out = a + b (elementwise; shapes must match).
void Add(const Tensor& a, const Tensor& b, Tensor* out);

/// t *= s in place.
void Scale(Tensor* t, float s);

}  // namespace tensor
}  // namespace errorflow

#endif  // ERRORFLOW_TENSOR_OPS_H_
