#include "tensor/ops.h"

#include <cstring>

#include "tensor/kernels.h"

namespace errorflow {
namespace tensor {

void Gemm(const Tensor& a, const Tensor& b, Tensor* c) {
  EF_CHECK(a.ndim() == 2 && b.ndim() == 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  EF_CHECK(b.dim(0) == k);
  if (!c->HasShape({m, n})) *c = Tensor({m, n});
  GemmKernel(a.data(), b.data(), c->data(), m, n, k);
}

void GemmNT(const Tensor& a, const Tensor& b, Tensor* c,
            const Tensor* bias) {
  EF_CHECK(a.ndim() == 2 && b.ndim() == 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  EF_CHECK(b.dim(1) == k);
  EF_CHECK(bias == nullptr || (bias->ndim() == 1 && bias->dim(0) == n));
  if (!c->HasShape({m, n})) *c = Tensor({m, n});
  GemmNTKernel(a.data(), b.data(), c->data(), m, n, k,
               bias != nullptr ? bias->data() : nullptr);
}

void GemmTN(const Tensor& a, const Tensor& b, Tensor* c) {
  EF_CHECK(a.ndim() == 2 && b.ndim() == 2);
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  EF_CHECK(b.dim(0) == k);
  if (!c->HasShape({m, n})) *c = Tensor({m, n});
  GemmTNKernel(a.data(), b.data(), c->data(), m, n, k);
}

void Gemv(const Tensor& w, const Tensor& x, Tensor* y) {
  EF_CHECK(w.ndim() == 2 && x.ndim() == 1 && w.dim(1) == x.dim(0));
  const int64_t m = w.dim(0), n = w.dim(1);
  if (!y->HasShape({m})) *y = Tensor({m});
  GemvKernel(w.data(), x.data(), y->data(), m, n);
}

void GemvT(const Tensor& w, const Tensor& x, Tensor* y) {
  EF_CHECK(w.ndim() == 2 && x.ndim() == 1 && w.dim(0) == x.dim(0));
  const int64_t m = w.dim(0), n = w.dim(1);
  if (!y->HasShape({n})) *y = Tensor({n});
  GemvTKernel(w.data(), x.data(), y->data(), m, n);
}

void Add(const Tensor& a, const Tensor& b, Tensor* out) {
  EF_CHECK(a.size() == b.size());
  if (out->size() != a.size()) *out = Tensor(a.shape());
  for (int64_t i = 0; i < a.size(); ++i) (*out)[i] = a[i] + b[i];
}

void Scale(Tensor* t, float s) {
  for (int64_t i = 0; i < t->size(); ++i) (*t)[i] *= s;
}

}  // namespace tensor
}  // namespace errorflow
