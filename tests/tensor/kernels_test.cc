#include "tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "testing/test_util.h"
#include "util/macros.h"
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
// The last five run GemmNT on its packed-panel AVX-512 tile (m >= k): the
// h2 Dense layers (k = 9, 50; n = 50, 9) at m % 3 = 1, 2, 1 and 0 (the
// 3-row tile and its one-row tail), and k < 8 with n > 16, n % 16 != 0.
struct GemmShape {
  int64_t m, n, k;
};

const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},     {1, 1, 300},  {3, 5, 2},    {4, 16, 8},
    {5, 17, 9},   {7, 23, 31},   {8, 8, 257},  {2, 100, 3},  {100, 2, 3},
    {33, 19, 65}, {64, 48, 129}, {1, 64, 300}, {65, 1, 40},  {31, 127, 63},
    {37, 50, 9},  {53, 50, 50},  {61, 9, 50},  {48, 50, 9},  {30, 33, 5},
};

// A bias for n columns: normal entries with +0 and -0 among them.
Tensor SignedZeroBias(int64_t n, util::Rng* rng) {
  Tensor bias = RandomTensor({n}, rng);
  bias[0] = 0.0f;
  bias[n / 2] = -0.0f;
  return bias;
}

// The unfused dense forward that GemmNT's bias replaces: `c` (a GemmNT
// output without bias), then one scalar `c += bias[j]` per element.
Tensor PlusRowBias(Tensor c, const Tensor& bias) {
  for (int64_t i = 0; i < c.dim(0); ++i) {
    for (int64_t j = 0; j < c.dim(1); ++j) c.at(i, j) += bias[j];
  }
  return c;
}

// `a` with +Inf, -Inf, a quiet NaN with a payload and a negative one in
// rows 0-3 (those that exist), each in a different column, so every
// output has at most one non-finite term and its bits do not depend on
// which NaN operand an instruction propagates.
Tensor WithNonFinite(Tensor a) {
  const uint32_t nan_bits[] = {0x7FC0BEEFu, 0xFFC01234u};
  float nans[2];
  std::memcpy(nans, nan_bits, sizeof(nans));
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), nans[0],
                            nans[1]};
  for (int64_t r = 0; r < std::min<int64_t>(4, a.dim(0)); ++r) {
    a.at(r, r % a.dim(1)) = specials[r];
  }
  return a;
}

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
  testing::ForEachKernelPath([&] { RunAllShapes(); });
}

TEST_F(KernelsTest, RandomizedShapesThreaded) {
  // Force the row-partitioned path even for tiny problems so the fan-out,
  // chunk-boundary, and inline-chunk logic all execute.
  SetKernelThreads(4);
  SetKernelParallelFlopThreshold(1);
  testing::ForEachKernelPath([&] { RunAllShapes(); });
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

TEST_F(KernelsTest, ThreadedMatchesSerialBitExact) {
  // Row partitioning must not change per-row accumulation order: each C
  // row is computed by exactly one chunk, so results are bit-identical.
  // The GemmNT cases carry a bias, added in each chunk's own stores: one
  // below m = k (the dot path), one above (the AVX-512 tile, whose 17- and
  // 16-row chunks end in one- and two-row tails).
  util::Rng rng(99);
  const Tensor a = RandomTensor({67, 129}, &rng);
  const Tensor b = RandomTensor({129, 45}, &rng);
  const Tensor bt = RandomTensor({45, 129}, &rng);
  const Tensor x = RandomTensor({67, 50}, &rng);
  const Tensor w = RandomTensor({45, 50}, &rng);
  const Tensor bias = SignedZeroBias(45, &rng);
  auto run = [&] {
    std::vector<Tensor> out(5);
    Gemm(a, b, &out[0]);
    GemmNT(a, bt, &out[1], &bias);
    GemmNT(x, w, &out[2], &bias);
    GemmNT(a, bt, &out[3]);
    GemmNT(x, w, &out[4]);
    return out;
  };
  testing::ForEachKernelPath([&] {
    SetKernelThreads(1);
    const std::vector<Tensor> serial = run();
    SetKernelThreads(4);
    SetKernelParallelFlopThreshold(1);
    const std::vector<Tensor> threaded = run();
    SetKernelParallelFlopThreshold(1 << 21);
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(SameBits(serial[i], threaded[i])) << "output " << i;
    }
    EXPECT_TRUE(SameBits(threaded[1], PlusRowBias(threaded[3], bias)));
    EXPECT_TRUE(SameBits(threaded[2], PlusRowBias(threaded[4], bias)));
  });
}

// Every kernel path produces the same bits: on every shape, serial and
// threaded, each path's Gemm, GemmNT, GemmTN, Gemv, GemvT and tanh outputs
// equal the portable path's, whose arithmetic is written out with std::fma.
// GemmNT also runs with a bias (±0 entries included) on A as drawn and on
// A holding ±Inf and NaNs, and on every path equals its own output without
// the bias followed by a scalar `c += bias[j]`.
TEST_F(KernelsTest, PathsAreBitIdentical) {
  util::Rng rng(55);
  for (const GemmShape& s : kShapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " n=" << s.n << " k=" << s.k);
    const Tensor a = RandomTensor({s.m, s.k}, &rng);
    const Tensor b = RandomTensor({s.k, s.n}, &rng);
    const Tensor bt = RandomTensor({s.n, s.k}, &rng);
    const Tensor at = RandomTensor({s.k, s.m}, &rng);
    const Tensor xk = RandomTensor({s.k}, &rng);
    const Tensor xm = RandomTensor({s.m}, &rng);
    const Tensor bias = SignedZeroBias(s.n, &rng);
    const Tensor a_nonfinite = WithNonFinite(a);
    auto run = [&] {
      std::vector<Tensor> out(9);
      Gemm(a, b, &out[0]);
      GemmNT(a, bt, &out[1]);
      GemmTN(at, b, &out[2]);
      Gemv(a, xk, &out[3]);
      GemvT(a, xm, &out[4]);
      out[5] = Tensor(a.shape());
      TanhKernel(a.data(), out[5].data(), a.size());
      GemmNT(a_nonfinite, bt, &out[6]);
      GemmNT(a, bt, &out[7], &bias);
      GemmNT(a_nonfinite, bt, &out[8], &bias);
      return out;
    };
    for (const bool threaded : {false, true}) {
      SetKernelThreads(threaded ? 4 : 1);
      SetKernelParallelFlopThreshold(threaded ? 1 : 1 << 21);
      SetKernelPathForTest(KernelPath::kPortable);
      const std::vector<Tensor> want = run();
      testing::ForEachKernelPath([&] {
        const std::vector<Tensor> got = run();
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_TRUE(SameBits(got[i], want[i]))
              << "output " << i << (threaded ? ", threaded" : ", serial");
        }
        EXPECT_TRUE(SameBits(got[7], PlusRowBias(got[1], bias)))
            << "bias" << (threaded ? ", threaded" : ", serial");
        EXPECT_TRUE(SameBits(got[8], PlusRowBias(got[6], bias)))
            << "bias, non-finite A" << (threaded ? ", threaded" : ", serial");
      });
    }
  }
}

// `n` floats in an anonymous mapping between two PROT_NONE pages, either
// ending at the upper guard page or starting at the lower one, so a read or
// write past either end of the data faults.
class GuardedFloats {
 public:
  GuardedFloats(size_t n, bool at_end) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t data = (n * sizeof(float) + page - 1) / page * page;
    size_ = data + 2 * page;
    void* base = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EF_CHECK(base != MAP_FAILED);
    base_ = static_cast<char*>(base);
    EF_CHECK(mprotect(base_, page, PROT_NONE) == 0);
    EF_CHECK(mprotect(base_ + page + data, page, PROT_NONE) == 0);
    data_ = reinterpret_cast<float*>(
        at_end ? base_ + page + data - n * sizeof(float) : base_ + page);
  }
  ~GuardedFloats() { munmap(base_, size_); }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;

  float* data() { return data_; }

 private:
  char* base_ = nullptr;
  size_t size_ = 0;
  float* data_ = nullptr;
};

// Conv2dKernel's contract, written out: per output, one fma per tap
// l = (ch, ky, kx) in order from +0, padded taps as +0, then + bias[oc].
std::vector<float> ReferenceConv(const ConvGeometry& g, const float* weight,
                                 const float* bias, const float* in) {
  const int64_t oh = g.oh(), ow = g.ow(), kk = g.c * g.k * g.k;
  std::vector<float> out(static_cast<size_t>(g.n * g.out_ch * oh * ow));
  float* dst = out.data();
  for (int64_t img = 0; img < g.n; ++img) {
    for (int64_t oc = 0; oc < g.out_ch; ++oc) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          int64_t l = 0;
          for (int64_t ch = 0; ch < g.c; ++ch) {
            for (int ky = 0; ky < g.k; ++ky) {
              for (int kx = 0; kx < g.k; ++kx, ++l) {
                const int64_t iy = oy * g.s + ky - g.p;
                const int64_t ix = ox * g.s + kx - g.p;
                const float v =
                    (iy >= 0 && iy < g.h && ix >= 0 && ix < g.w)
                        ? in[((img * g.c + ch) * g.h + iy) * g.w + ix]
                        : 0.0f;
                acc = std::fma(weight[oc * kk + l], v, acc);
              }
            }
          }
          *dst++ = acc + bias[oc];
        }
      }
    }
  }
  return out;
}

// Masked loads, gathers and masked stores must not touch memory past the
// input or the output: each geometry's last 16-column block is partial
// (valid < 16), its input ends (or starts) at a PROT_NONE page and so does
// its output. Stride 1 with OW == W packs with masked loads that run past
// the last input float; stride 2 packs with gathers. The same holds for
// GemmNT's bias, A and C (below).
TEST(ConvKernelBoundsTest, MaskedLoadsStayInsideGuardPages) {
  const ConvGeometry geometries[] = {
      {1, 3, 5, 7, 5, 3, 1, 1},   // 35 columns: last block valid = 3.
      {1, 2, 3, 5, 9, 3, 1, 1},   // 15 columns: one block, valid = 15.
      {2, 2, 9, 9, 4, 3, 2, 1},   // 50 columns: last block valid = 2.
      {1, 4, 6, 6, 8, 1, 2, 0},   // 9 columns, 1x1 stride 2.
      {3, 5, 4, 4, 10, 3, 1, 1},  // 48 columns, 16 per image.
  };
  for (const ConvGeometry& g : geometries) {
    SCOPED_TRACE(::testing::Message() << "n=" << g.n << " c=" << g.c
                                      << " h=" << g.h << " w=" << g.w
                                      << " k=" << g.k << " s=" << g.s);
    const int64_t in_n = g.n * g.c * g.h * g.w;
    const int64_t out_n = g.n * g.out_ch * g.oh() * g.ow();
    const Tensor in = testing::RandomTensor({in_n}, 3);
    const Tensor weight =
        testing::RandomTensor({g.out_ch * g.c * g.k * g.k}, 5);
    const Tensor bias = testing::RandomTensor({g.out_ch}, 7);
    const std::vector<float> want =
        ReferenceConv(g, weight.data(), bias.data(), in.data());
    for (const bool at_end : {true, false}) {
      GuardedFloats gin(static_cast<size_t>(in_n), at_end);
      GuardedFloats gout(static_cast<size_t>(out_n), at_end);
      std::memcpy(gin.data(), in.data(), in_n * sizeof(float));
      testing::ForEachKernelPath([&] {
        Conv2dKernel(weight.data(), bias.data(), gin.data(), gout.data(), g);
        EXPECT_EQ(
            std::memcmp(gout.data(), want.data(), out_n * sizeof(float)), 0)
            << (at_end ? "buffers end at a guard page"
                       : "buffers start at a guard page");
      });
    }
  }
  // GemmNT with a bias: the AVX-512 tile reads the bias with one masked
  // load per 16 columns and stores C with masked stores. With n % 16 != 0
  // the last load and store are partial; the bias, A and C each end (or
  // start) at a PROT_NONE page. m >= k and a small B keep every shape on
  // the packed-panel tile.
  const GemmShape nt_shapes[] = {{7, 9, 5}, {40, 50, 9}, {6, 17, 3}};
  for (const GemmShape& s : nt_shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "GemmNT m=" << s.m << " n=" << s.n << " k=" << s.k);
    const Tensor a = testing::RandomTensor({s.m, s.k}, 11);
    const Tensor bt = testing::RandomTensor({s.n, s.k}, 13);
    const Tensor bias = testing::RandomTensor({s.n}, 17);
    Tensor want;
    GemmNT(a, bt, &want);
    want = PlusRowBias(std::move(want), bias);
    for (const bool at_end : {true, false}) {
      GuardedFloats ga(static_cast<size_t>(s.m * s.k), at_end);
      GuardedFloats gbias(static_cast<size_t>(s.n), at_end);
      GuardedFloats gc(static_cast<size_t>(s.m * s.n), at_end);
      std::memcpy(ga.data(), a.data(), a.size() * sizeof(float));
      std::memcpy(gbias.data(), bias.data(), bias.size() * sizeof(float));
      testing::ForEachKernelPath([&] {
        GemmNTKernel(ga.data(), bt.data(), gc.data(), s.m, s.n, s.k,
                     gbias.data());
        EXPECT_EQ(std::memcmp(gc.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << (at_end ? "buffers end at a guard page"
                       : "buffers start at a guard page");
      });
    }
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
  SetKernelThreads(0);
  EXPECT_GE(KernelThreads(), 1);
  EXPECT_FALSE(KernelDescription().empty());
}

// TanhKernel must reproduce std::tanh bit for bit on every float, NaN
// payloads included: model outputs, variant checksums and pinned digests
// all depend on it. The AVX2 and AVX-512 kernels port glibc's fdlibm tanhf;
// on a libm with a different tanhf this fails and lists inputs that differ.
// The std::tanh reference is computed once per slice of inputs, and every
// supported kernel path is checked against it before the next slice.
TEST(TanhKernelTest, MatchesStdTanhOnAllFloats) {
  constexpr int kThreads = 4;
  constexpr uint64_t kAll = uint64_t{1} << 32;
  constexpr uint64_t kSlice = uint64_t{1} << 24;  // 64 MB of reference.
  constexpr uint64_t kPerThread = kSlice / kThreads;
  constexpr int64_t kBlock = 4096;
  const std::vector<KernelPath> paths = SupportedKernelPaths();
  std::vector<float> ref(kSlice);
  std::mutex mu;
  std::vector<uint64_t> mismatches(paths.size(), 0);
  std::vector<std::string> examples(paths.size());
  auto float_at = [](uint64_t bits) {
    return std::bit_cast<float>(static_cast<uint32_t>(bits));
  };
  // Runs sweep(begin, end) on kThreads threads, one quarter of the slice
  // starting at `slice` each, and joins them.
  auto split = [&](uint64_t slice, const auto& sweep) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      const uint64_t begin = slice + kPerThread * t;
      threads.emplace_back(sweep, begin, begin + kPerThread);
    }
    for (auto& t : threads) t.join();
  };
  for (uint64_t slice = 0; slice < kAll; slice += kSlice) {
    split(slice, [&](uint64_t begin, uint64_t end) {
      for (uint64_t b = begin; b < end; ++b) {
        ref[b - slice] = std::tanh(float_at(b));
      }
    });
    for (size_t p = 0; p < paths.size(); ++p) {
      SetKernelPathForTest(paths[p]);
      split(slice, [&](uint64_t begin, uint64_t end) {
        std::vector<float> x(kBlock), y(kBlock);
        for (uint64_t base = begin; base < end; base += kBlock) {
          for (int64_t i = 0; i < kBlock; ++i) x[i] = float_at(base + i);
          TanhKernel(x.data(), y.data(), kBlock);
          const float* want = &ref[base - slice];
          if (std::memcmp(y.data(), want, sizeof(float) * kBlock) == 0) {
            continue;
          }
          std::lock_guard<std::mutex> lock(mu);
          for (int64_t i = 0; i < kBlock; ++i) {
            const uint32_t got_bits = std::bit_cast<uint32_t>(y[i]);
            const uint32_t ref_bits = std::bit_cast<uint32_t>(want[i]);
            if (got_bits == ref_bits || mismatches[p]++ >= 10) continue;
            char line[96];
            std::snprintf(line, sizeof(line),
                          "x=0x%08x: kernel 0x%08x, std::tanh 0x%08x\n",
                          static_cast<uint32_t>(base + i), got_bits,
                          ref_bits);
            examples[p] += line;
          }
        }
      });
    }
  }
  SetKernelPathForTest(paths.back());
  for (size_t p = 0; p < paths.size(); ++p) {
    EXPECT_EQ(mismatches[p], 0u)
        << "TanhKernel differs from this libm's tanhf ("
        << KernelPathName(paths[p]) << " kernel path):\n"
        << examples[p];
  }
}

// The all-floats sweep runs 4096-value blocks only. Every length in
// [0, 200], in place and out of place, reaches the AVX-512 path's 64-value
// steps, its 16-value steps and its masked tail, and the AVX2 path's
// scalar tail; each regime edge of the fdlibm port passes through all 64
// positions of a step, and the values past n stay unwritten.
TEST(TanhKernelTest, MatchesStdTanhAtEveryLengthAndPosition) {
  const uint32_t kEdges[] = {
      // +0 and subnormals.
      0x00000000, 0x00000001, 0x00400000, 0x007fffff,
      // |x| = 2^-55, below which tanh returns x * (1 + x).
      0x23ffffff, 0x24000000,
      // expm1f's thresholds on its argument 2|x|, as x and as 2|x|.
      0x33000000, 0x3eb17218, 0x3f851592,
      0x327fffff, 0x32800000, 0x3e317218, 0x3e317219, 0x3f051591, 0x3f051592,
      // |x| = 1 and |x| = 22.
      0x3f7fffff, 0x3f800000, 0x41afffff, 0x41b00000,
      // Inf and NaN payloads.
      0x7f800000, 0x7f800001, 0x7fc00000, 0x7fd23456,
  };
  std::vector<float> pool;
  for (const uint32_t bits : kEdges) {
    pool.push_back(std::bit_cast<float>(bits));
    pool.push_back(std::bit_cast<float>(bits | 0x80000000u));
  }
  ASSERT_LE(pool.size(), 64u);
  util::Rng rng(41);
  while (pool.size() < 64) {
    pool.push_back(static_cast<float>(rng.Normal(0.0, 3.0)));
  }
  constexpr float kSentinel = 12345.0f;
  constexpr int64_t kGuard = 16;
  testing::ForEachKernelPath([&] {
    std::vector<float> x, y, in_place;
    for (int64_t n = 0; n <= 200; ++n) {
      for (int64_t rot = 0; rot < 64; ++rot) {
        x.assign(n, 0.0f);
        for (int64_t i = 0; i < n; ++i) x[i] = pool[(i + rot) % 64];
        y.assign(n + kGuard, kSentinel);
        TanhKernel(x.data(), y.data(), n);
        in_place = x;
        in_place.resize(n + kGuard, kSentinel);
        TanhKernel(in_place.data(), in_place.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          const uint32_t want = std::bit_cast<uint32_t>(std::tanh(x[i]));
          ASSERT_EQ(std::bit_cast<uint32_t>(y[i]), want)
              << std::hex << "x=0x" << std::bit_cast<uint32_t>(x[i])
              << std::dec << " n=" << n << " i=" << i;
          ASSERT_EQ(std::bit_cast<uint32_t>(in_place[i]), want)
              << std::hex << "in place, x=0x"
              << std::bit_cast<uint32_t>(x[i]) << std::dec << " n=" << n
              << " i=" << i;
        }
        for (int64_t i = n; i < n + kGuard; ++i) {
          ASSERT_EQ(y[i], kSentinel) << "n=" << n << " i=" << i;
          ASSERT_EQ(in_place[i], kSentinel) << "n=" << n << " i=" << i;
        }
      }
    }
  });
}

}  // namespace
}  // namespace tensor
}  // namespace errorflow
