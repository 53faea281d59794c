#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace errorflow {
namespace tensor {
namespace {

// Double-precision references, deliberately naive.
Tensor RefGemm(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t l = 0; l < k; ++l) {
        acc += static_cast<double>(a.at(i, l)) * b.at(l, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor RefGemmNT(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t l = 0; l < k; ++l) {
        acc += static_cast<double>(a.at(i, l)) * b.at(j, l);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor RefGemmTN(const Tensor& a, const Tensor& b) {
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t l = 0; l < k; ++l) {
        acc += static_cast<double>(a.at(l, i)) * b.at(l, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor RandomTensor(Shape shape, util::Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Normal());
  }
  return t;
}

void ExpectClose(const Tensor& got, const Tensor& want, int64_t k) {
  ASSERT_EQ(got.shape(), want.shape());
  // Accumulation-order differences grow with sqrt(k) for N(0,1) inputs.
  const double tol =
      1e-4 * std::sqrt(static_cast<double>(std::max<int64_t>(k, 1))) + 1e-5;
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "element " << i;
  }
}

// Shapes chosen to straddle every micro-kernel edge: the 4-row register
// tile, the 16/8-wide column tiles, the k-unroll of the dot kernels, and
// the kKc cache block — plus degenerate m=1 / k=1 / tall / skinny cases.
struct GemmShape {
  int64_t m, n, k;
};

const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},     {1, 1, 300},  {3, 5, 2},    {4, 16, 8},
    {5, 17, 9},   {7, 23, 31},   {8, 8, 257},  {2, 100, 3},  {100, 2, 3},
    {33, 19, 65}, {64, 48, 129}, {1, 64, 300}, {65, 1, 40},  {31, 127, 63},
};

class KernelsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Restore defaults so other suites see the stock configuration.
    SetKernelThreads(0);
    SetKernelParallelFlopThreshold(1 << 21);
  }

  void RunAllShapes() {
    util::Rng rng(321);
    for (const GemmShape& s : kShapes) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << s.m << " n=" << s.n << " k=" << s.k);
      const Tensor a = RandomTensor({s.m, s.k}, &rng);
      const Tensor b = RandomTensor({s.k, s.n}, &rng);
      const Tensor bt = RandomTensor({s.n, s.k}, &rng);
      const Tensor at = RandomTensor({s.k, s.m}, &rng);
      Tensor c;
      Gemm(a, b, &c);
      ExpectClose(c, RefGemm(a, b), s.k);
      GemmNT(a, bt, &c);
      ExpectClose(c, RefGemmNT(a, bt), s.k);
      GemmTN(at, b, &c);
      ExpectClose(c, RefGemmTN(at, b), s.k);
    }
  }
};

TEST_F(KernelsTest, RandomizedShapesSerial) {
  SetKernelThreads(1);
  RunAllShapes();
}

TEST_F(KernelsTest, RandomizedShapesThreaded) {
  // Force the row-partitioned path even for tiny problems so the fan-out,
  // chunk-boundary, and inline-chunk logic all execute.
  SetKernelThreads(4);
  SetKernelParallelFlopThreshold(1);
  RunAllShapes();
}

TEST_F(KernelsTest, ThreadedMatchesSerialBitExact) {
  // Row partitioning must not change per-row accumulation order: each C
  // row is computed by exactly one chunk, so results are bit-identical.
  util::Rng rng(99);
  const Tensor a = RandomTensor({67, 129}, &rng);
  const Tensor b = RandomTensor({129, 45}, &rng);
  SetKernelThreads(1);
  Tensor serial;
  Gemm(a, b, &serial);
  SetKernelThreads(4);
  SetKernelParallelFlopThreshold(1);
  Tensor threaded;
  Gemm(a, b, &threaded);
  ASSERT_EQ(serial.shape(), threaded.shape());
  for (int64_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], threaded[i]) << "element " << i;
  }
}

TEST_F(KernelsTest, GemvMatchesReference) {
  util::Rng rng(7);
  for (const int64_t n : {1, 3, 8, 17, 63, 300}) {
    for (const int64_t m : {1, 5, 32, 65}) {
      const Tensor w = RandomTensor({m, n}, &rng);
      const Tensor x = RandomTensor({n}, &rng);
      const Tensor xm = RandomTensor({m}, &rng);
      Tensor y;
      Gemv(w, x, &y);
      ASSERT_EQ(y.shape(), (Shape{m}));
      for (int64_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          acc += static_cast<double>(w.at(i, j)) * x[j];
        }
        ASSERT_NEAR(y[i], acc, 1e-4 * std::sqrt(static_cast<double>(n)) + 1e-5);
      }
      Tensor yt;
      GemvT(w, xm, &yt);
      ASSERT_EQ(yt.shape(), (Shape{n}));
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int64_t i = 0; i < m; ++i) {
          acc += static_cast<double>(w.at(i, j)) * xm[i];
        }
        ASSERT_NEAR(yt[j], acc,
                    1e-4 * std::sqrt(static_cast<double>(m)) + 1e-5);
      }
    }
  }
}

TEST_F(KernelsTest, ConfigurationRoundTrips) {
  SetKernelThreads(3);
  EXPECT_EQ(KernelThreads(), 3);
  SetKernelParallelFlopThreshold(12345);
  EXPECT_EQ(KernelParallelFlopThreshold(), 12345);
  SetKernelThreads(0);
  EXPECT_GE(KernelThreads(), 1);
  EXPECT_FALSE(KernelDescription().empty());
}

// TanhKernel must reproduce std::tanh bit for bit on every float, NaN
// payloads included: model outputs, variant checksums and pinned digests
// all depend on it. The AVX2 path is a port of glibc's fdlibm tanhf; on a
// libm with a different tanhf this fails and lists inputs that differ.
TEST(TanhKernelTest, MatchesStdTanhOnAllFloats) {
  constexpr int kThreads = 4;
  constexpr uint64_t kAll = uint64_t{1} << 32;
  constexpr int64_t kBlock = 4096;
  std::atomic<uint64_t> mismatches{0};
  std::mutex mu;
  std::vector<std::string> examples;
  auto sweep = [&](uint64_t begin, uint64_t end) {
    std::vector<float> x(kBlock), y(kBlock);
    for (uint64_t base = begin; base < end; base += kBlock) {
      for (int64_t i = 0; i < kBlock; ++i) {
        const uint32_t bits = static_cast<uint32_t>(base + i);
        std::memcpy(&x[i], &bits, sizeof(bits));
      }
      TanhKernel(x.data(), y.data(), kBlock);
      for (int64_t i = 0; i < kBlock; ++i) {
        const float ref = std::tanh(x[i]);
        uint32_t got_bits, ref_bits;
        std::memcpy(&got_bits, &y[i], sizeof(got_bits));
        std::memcpy(&ref_bits, &ref, sizeof(ref_bits));
        if (got_bits == ref_bits) continue;
        if (mismatches.fetch_add(1) < 10) {
          char line[96];
          std::snprintf(line, sizeof(line),
                        "x=0x%08x: kernel 0x%08x, std::tanh 0x%08x",
                        static_cast<uint32_t>(base + i), got_bits, ref_bits);
          std::lock_guard<std::mutex> lock(mu);
          examples.push_back(line);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(sweep, kAll / kThreads * t,
                         kAll / kThreads * (t + 1));
  }
  for (auto& t : threads) t.join();
  std::string detail;
  for (const auto& e : examples) detail += e + "\n";
  EXPECT_EQ(mismatches.load(), 0u)
      << "TanhKernel differs from this libm's tanhf (" << KernelDescription()
      << "):\n"
      << detail;
}

}  // namespace
}  // namespace tensor
}  // namespace errorflow
