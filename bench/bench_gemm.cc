// GEMM kernel benchmark: new blocked/vectorized/threaded kernels vs the
// seed's scalar loops on every kernel path this host supports, the h2
// Dense layers' GemmNT-with-bias per path next to the unfused GemmNT +
// bias pass it replaced, a GemmNT row-count sweep, a thread-scaling sweep,
// and the tanh kernel against std::tanh per path.
//
// Usage: bench_gemm [max_threads]
//
// Prints, per (op, path, size): baseline ms, kernel ms, speedup, GFLOP/s —
// the docs/PERFORMANCE.md acceptance numbers come from this binary. The
// baseline implementations below are verbatim copies of the pre-kernel
// tensor::Gemm / tensor::GemmNT inner loops (cache-blocked scalar code),
// kept here so the comparison survives the originals' deletion. Before
// timing the Dense layers it checks that every path's output is
// bit-identical to the portable path's and to the unfused pair's, and
// exits 1 naming the layer and path otherwise.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

// The Dense forward before the bias moved into GemmNT's store: GemmNT,
// then a second pass adding bias[j] to every row (the deleted
// tensor::AddRowBias).
void UnfusedDense(const Tensor& x, const Tensor& w, const Tensor& bias,
                  Tensor* y) {
  errorflow::tensor::GemmNT(x, w, y);
  const int64_t m = y->dim(0), n = y->dim(1);
  float* __restrict p = y->data();
  const float* __restrict pb = bias.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) p[i * n + j] += pb[j];
  }
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
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
  // batch, as DenseLayer::Forward runs them: GemmNT with the bias added in
  // the kernel's store, next to the unfused GemmNT + bias pass.
  struct DenseLayerCase {
    int64_t in, out;
    Tensor x, w, bias;
  };
  std::vector<DenseLayerCase> h2_layers;
  for (const auto& [in, out] :
       {std::pair<int64_t, int64_t>{9, 50}, {50, 50}, {50, 9}}) {
    h2_layers.push_back({in, out, RandomTensor({1024, in}, 4),
                         RandomTensor({out, in}, 5), RandomTensor({out}, 6)});
  }
  for (const auto& [in, out, x, w, bias] : h2_layers) {
    ef::SetKernelPathForTest(ef::KernelPath::kPortable);
    Tensor want;
    ef::GemmNT(x, w, &want, &bias);
    for (const ef::KernelPath path : paths) {
      ef::SetKernelPathForTest(path);
      Tensor fused, unfused;
      ef::GemmNT(x, w, &fused, &bias);
      UnfusedDense(x, w, bias, &unfused);
      if (!SameBits(fused, want) || !SameBits(unfused, want)) {
        std::fprintf(stderr,
                     "FATAL: Dense %lld->%lld on the %s path differs from "
                     "the portable path's GemmNT with bias\n",
                     static_cast<long long>(in), static_cast<long long>(out),
                     ef::KernelPathName(path));
        return 1;
      }
    }
  }
  std::printf(
      "\nh2 Dense layers on 1024 rows, every output bit-identical to the "
      "portable path's (best of reps):\n");
  std::printf("%-10s %-9s %12s %12s %9s\n", "layer", "path", "unfused us",
              "fused us", "GFLOP/s");
  for (const auto& [in, out, x, w, bias] : h2_layers) {
    Tensor y;
    for (const ef::KernelPath path : paths) {
      ef::SetKernelPathForTest(path);
      const double unfused =
          TimeIt([&] { UnfusedDense(x, w, bias, &y); }, 200);
      const double fused = TimeIt([&] { ef::GemmNT(x, w, &y, &bias); }, 200);
      char layer[32];
      std::snprintf(layer, sizeof(layer), "%lld->%lld",
                    static_cast<long long>(in), static_cast<long long>(out));
      std::printf("%-10s %-9s %12.2f %12.2f %9.2f\n", layer,
                  ef::KernelPathName(path), unfused * 1e6, fused * 1e6,
                  2.0 * 1024 * in * out / fused / 1e9);
    }
  }
  ef::SetKernelPathForTest(paths.back());

  // GemmNT against a 50-output weight at small row counts, one column per
  // path: the AVX-512 path packs B and runs its 3-row tile only when
  // m >= k (and the panel fits in 32 KiB), and below that runs the AVX2
  // dot kernel, as the last column says.
  std::printf("\nGemmNT with bias, n = 50, row sweep (best of reps, us):\n");
  std::printf("%4s %4s", "k", "m");
  for (const ef::KernelPath path : paths) {
    std::printf(" %10s", ef::KernelPathName(path));
  }
  std::printf(" %12s\n", "avx512 runs");
  for (const int64_t k : {9, 50}) {
    const Tensor w = RandomTensor({50, k}, 7);
    const Tensor bias = RandomTensor({50}, 8);
    for (const int64_t m : {1, 2, 3, 4, 6, 8, 9, 12, 16, 24, 32, 40, 48, 50,
                            56, 64}) {
      const Tensor x = RandomTensor({m, k}, 9);
      Tensor y;
      std::printf("%4lld %4lld", static_cast<long long>(k),
                  static_cast<long long>(m));
      for (const ef::KernelPath path : paths) {
        ef::SetKernelPathForTest(path);
        std::printf(" %10.3f",
                    TimeIt([&] { ef::GemmNT(x, w, &y, &bias); }, 2000) * 1e6);
      }
      std::printf(" %12s\n", m >= k ? "3-row tile" : "avx2 dot");
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
