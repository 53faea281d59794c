// GEMM kernel benchmark: new blocked/vectorized/threaded kernels vs the
// seed's scalar loops, a thread-scaling sweep, and the tanh kernel against
// std::tanh.
//
// Usage: bench_gemm [max_threads]
//
// Prints, per (op, size): baseline ms, kernel ms, speedup, GFLOP/s — the
// docs/PERFORMANCE.md acceptance numbers come from this binary. The
// baseline implementations below are verbatim copies of the pre-kernel
// tensor::Gemm / tensor::GemmNT inner loops (cache-blocked scalar code),
// kept here so the comparison survives the originals' deletion.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace {

using errorflow::tensor::Shape;
using errorflow::tensor::Tensor;

constexpr int64_t kBlock = 64;  // The seed's cache-block size.

// Seed tensor::Gemm (blocked scalar axpy ordering).
void SeedGemm(const Tensor& a, const Tensor& b, Tensor* c) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (c->shape() != Shape{m, n}) *c = Tensor({m, n});
  c->Fill(0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c->data();
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t imax = std::min(i0 + kBlock, m);
    for (int64_t l0 = 0; l0 < k; l0 += kBlock) {
      const int64_t lmax = std::min(l0 + kBlock, k);
      for (int64_t i = i0; i < imax; ++i) {
        for (int64_t l = l0; l < lmax; ++l) {
          const float av = pa[i * k + l];
          const float* brow = pb + l * n;
          float* crow = pc + i * n;
          for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

// Seed tensor::GemmNT (row-dot ordering).
void SeedGemmNT(const Tensor& a, const Tensor& b, Tensor* c) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (c->shape() != Shape{m, n}) *c = Tensor({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c->data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
      pc[i * n + j] = acc;
    }
  }
}

Tensor RandomTensor(Shape shape, uint64_t seed) {
  errorflow::util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

// Best-of-reps wall time in seconds.
double TimeIt(const std::function<void()>& fn, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

double Gflops(int64_t n, double seconds) {
  return 2.0 * static_cast<double>(n) * n * n / seconds / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const int max_threads = argc > 1 ? std::atoi(argv[1]) : 4;
  std::printf("kernels: %s\n\n",
              errorflow::tensor::KernelDescription().c_str());

  std::printf("single-thread kernels vs seed scalar loops (best of reps):\n");
  std::printf("%-8s %6s %12s %12s %9s %9s\n", "op", "size", "seed ms",
              "kernel ms", "speedup", "GFLOP/s");
  errorflow::tensor::SetKernelThreads(1);
  for (const int64_t n : {128, 256, 512}) {
    const Tensor a = RandomTensor({n, n}, 1);
    const Tensor b = RandomTensor({n, n}, 2);
    Tensor c;
    const int reps = n <= 256 ? 7 : 3;

    const double seed_nn = TimeIt([&] { SeedGemm(a, b, &c); }, reps);
    const double new_nn =
        TimeIt([&] { errorflow::tensor::Gemm(a, b, &c); }, reps);
    std::printf("%-8s %6lld %12.2f %12.2f %8.2fx %9.2f\n", "Gemm",
                static_cast<long long>(n), seed_nn * 1e3, new_nn * 1e3,
                seed_nn / new_nn, Gflops(n, new_nn));

    const double seed_nt = TimeIt([&] { SeedGemmNT(a, b, &c); }, reps);
    const double new_nt =
        TimeIt([&] { errorflow::tensor::GemmNT(a, b, &c); }, reps);
    std::printf("%-8s %6lld %12.2f %12.2f %8.2fx %9.2f\n", "GemmNT",
                static_cast<long long>(n), seed_nt * 1e3, new_nt * 1e3,
                seed_nt / new_nt, Gflops(n, new_nt));
  }

  std::printf("\nthread scaling, Gemm 512^3 (speedup vs 1 kernel thread):\n");
  {
    const int64_t n = 512;
    const Tensor a = RandomTensor({n, n}, 1);
    const Tensor b = RandomTensor({n, n}, 2);
    Tensor c;
    errorflow::tensor::SetKernelThreads(1);
    const double t1 = TimeIt([&] { errorflow::tensor::Gemm(a, b, &c); }, 5);
    std::printf("%8s %12s %9s %9s\n", "threads", "kernel ms", "speedup",
                "GFLOP/s");
    for (int threads = 1; threads <= max_threads; threads *= 2) {
      errorflow::tensor::SetKernelThreads(threads);
      const double t = TimeIt([&] { errorflow::tensor::Gemm(a, b, &c); }, 5);
      std::printf("%8d %12.2f %8.2fx %9.2f\n", threads, t * 1e3, t1 / t,
                  Gflops(n, t));
    }
  }
  errorflow::tensor::SetKernelThreads(0);

  // One h2 hidden layer's worth of pre-activations (a 1024-row batch of 50
  // units). TanhKernel's output is bit-identical to std::tanh's.
  std::printf("\ntanh, 1024x50 N(0, 1.5) values (best of reps), %s:\n",
              errorflow::tensor::KernelSimdEnabled()
                  ? "avx2 8-lane kernel"
                  : "no avx2: the kernel runs std::tanh");
  {
    Tensor x = RandomTensor({1024, 50}, 3);
    for (int64_t i = 0; i < x.size(); ++i) x[i] *= 1.5f;
    Tensor y(x.shape());
    const double n = static_cast<double>(x.size());
    const double scalar = TimeIt(
        [&] {
          for (int64_t i = 0; i < x.size(); ++i) y[i] = std::tanh(x[i]);
        },
        20);
    const double kernel = TimeIt(
        [&] { errorflow::tensor::TanhKernel(x.data(), y.data(), x.size()); },
        20);
    std::printf("%-12s %14s %14s %9s\n", "op", "std::tanh ns", "kernel ns",
                "speedup");
    std::printf("%-12s %14.2f %14.2f %8.2fx\n", "tanh", scalar / n * 1e9,
                kernel / n * 1e9, scalar / kernel);
  }
  return 0;
}
