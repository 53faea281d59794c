// GEMM kernel benchmark: new blocked/vectorized/threaded kernels vs the
// seed's scalar loops on every kernel path this host supports, the h2
// Dense layers' GemmNT per path, a thread-scaling sweep, and the tanh
// kernel against std::tanh per path.
//
// Usage: bench_gemm [max_threads]
//
// Prints, per (op, path, size): baseline ms, kernel ms, speedup, GFLOP/s —
// the docs/PERFORMANCE.md acceptance numbers come from this binary. The
// baseline implementations below are verbatim copies of the pre-kernel
// tensor::Gemm / tensor::GemmNT inner loops (cache-blocked scalar code),
// kept here so the comparison survives the originals' deletion.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

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
  namespace ef = errorflow::tensor;
  const int max_threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::vector<ef::KernelPath> paths = ef::SupportedKernelPaths();
  std::printf("kernels: %s\n\n", ef::KernelDescription().c_str());

  std::printf(
      "single-thread kernels vs seed scalar loops, per kernel path (best "
      "of reps):\n");
  std::printf("%-8s %-9s %6s %12s %12s %9s %9s\n", "op", "path", "size",
              "seed ms", "kernel ms", "speedup", "GFLOP/s");
  ef::SetKernelThreads(1);
  for (const int64_t n : {128, 256, 512}) {
    const Tensor a = RandomTensor({n, n}, 1);
    const Tensor b = RandomTensor({n, n}, 2);
    Tensor c;
    const int reps = n <= 256 ? 7 : 3;
    const double seed_nn = TimeIt([&] { SeedGemm(a, b, &c); }, reps);
    const double seed_nt = TimeIt([&] { SeedGemmNT(a, b, &c); }, reps);
    for (const ef::KernelPath path : paths) {
      ef::SetKernelPathForTest(path);
      const double new_nn = TimeIt([&] { ef::Gemm(a, b, &c); }, reps);
      std::printf("%-8s %-9s %6lld %12.2f %12.2f %8.2fx %9.2f\n", "Gemm",
                  ef::KernelPathName(path), static_cast<long long>(n),
                  seed_nn * 1e3, new_nn * 1e3, seed_nn / new_nn,
                  Gflops(n, new_nn));
      const double new_nt = TimeIt([&] { ef::GemmNT(a, b, &c); }, reps);
      std::printf("%-8s %-9s %6lld %12.2f %12.2f %8.2fx %9.2f\n", "GemmNT",
                  ef::KernelPathName(path), static_cast<long long>(n),
                  seed_nt * 1e3, new_nt * 1e3, seed_nt / new_nt,
                  Gflops(n, new_nt));
    }
  }
  ef::SetKernelPathForTest(paths.back());

  // The h2 surrogate's Dense layers (9 -> 50 -> 50 -> 9) on one 1024-row
  // batch: GemmNT against the layer's (out x in) weight.
  std::printf("\nh2 Dense layers, GemmNT on 1024 rows (best of reps):\n");
  std::printf("%-10s %-9s %12s %9s\n", "layer", "path", "kernel us",
              "GFLOP/s");
  for (const auto& [in, out] :
       {std::pair<int64_t, int64_t>{9, 50}, {50, 50}, {50, 9}}) {
    const Tensor x = RandomTensor({1024, in}, 4);
    const Tensor w = RandomTensor({out, in}, 5);
    Tensor y;
    for (const ef::KernelPath path : paths) {
      ef::SetKernelPathForTest(path);
      const double t = TimeIt([&] { ef::GemmNT(x, w, &y); }, 200);
      char layer[32];
      std::snprintf(layer, sizeof(layer), "%lld->%lld",
                    static_cast<long long>(in), static_cast<long long>(out));
      std::printf("%-10s %-9s %12.2f %9.2f\n", layer,
                  ef::KernelPathName(path), t * 1e6,
                  2.0 * 1024 * in * out / t / 1e9);
    }
  }
  ef::SetKernelPathForTest(paths.back());

  std::printf("\nthread scaling, Gemm 512^3 (speedup vs 1 kernel thread):\n");
  {
    const int64_t n = 512;
    const Tensor a = RandomTensor({n, n}, 1);
    const Tensor b = RandomTensor({n, n}, 2);
    Tensor c;
    ef::SetKernelThreads(1);
    const double t1 = TimeIt([&] { ef::Gemm(a, b, &c); }, 5);
    std::printf("%8s %12s %9s %9s\n", "threads", "kernel ms", "speedup",
                "GFLOP/s");
    for (int threads = 1; threads <= max_threads; threads *= 2) {
      ef::SetKernelThreads(threads);
      const double t = TimeIt([&] { ef::Gemm(a, b, &c); }, 5);
      std::printf("%8d %12.2f %8.2fx %9.2f\n", threads, t * 1e3, t1 / t,
                  Gflops(n, t));
    }
  }
  ef::SetKernelThreads(0);

  // One h2 hidden layer's worth of pre-activations (a 1024-row batch of 50
  // units). TanhKernel's output is bit-identical to std::tanh's on every
  // path; the portable path runs std::tanh.
  std::printf("\ntanh, 1024x50 N(0, 1.5) values (best of reps):\n");
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
    std::printf("%-12s %-9s %14s %14s %9s\n", "op", "path", "std::tanh ns",
                "kernel ns", "speedup");
    for (const ef::KernelPath path : paths) {
      ef::SetKernelPathForTest(path);
      const double kernel =
          TimeIt([&] { ef::TanhKernel(x.data(), y.data(), x.size()); }, 20);
      std::printf("%-12s %-9s %14.2f %14.2f %8.2fx\n", "tanh",
                  ef::KernelPathName(path), scalar / n * 1e9,
                  kernel / n * 1e9, scalar / kernel);
    }
  }
  ef::SetKernelPathForTest(paths.back());
  return 0;
}
