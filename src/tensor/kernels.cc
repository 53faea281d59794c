#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/macros.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EF_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace errorflow {
namespace tensor {

namespace {

// k-dimension cache block: a 256 x 16-float B panel (16 KiB) stays resident
// in L1 while a register tile sweeps the row chunk.
constexpr int64_t kKc = 256;

// 2*m*n*k below this runs serially: fan-out costs a few microseconds per
// chunk, so only multi-MFLOP problems benefit.
constexpr int64_t kDefaultParallelFlops = 1ll << 21;

std::mutex pool_mu;
std::unique_ptr<util::ThreadPool> pool;  // Created lazily; null while serial.
int configured_threads = -1;             // -1: defaults not resolved yet.
std::atomic<int64_t> parallel_flops{kDefaultParallelFlops};
// Set on pool workers while they run a kernel chunk, so a nested kernel
// call (e.g. a layer op invoked from inside a chunk) never blocks on the
// pool it is running on.
thread_local bool in_kernel_worker = false;

int DefaultThreads() {
  if (const char* env = std::getenv("ERRORFLOW_KERNEL_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// Returns the shared pool, or nullptr when kernels should stay serial.
util::ThreadPool* AcquirePool(int* threads) {
  std::lock_guard<std::mutex> lock(pool_mu);
  if (configured_threads < 0) configured_threads = DefaultThreads();
  *threads = configured_threads;
  if (configured_threads <= 1) return nullptr;
  if (pool == nullptr) {
    pool = std::make_unique<util::ThreadPool>(configured_threads);
  }
  return pool.get();
}

// Threshold / worker-count / nested-call check shared by every kernel
// entry point. Cheap (one relaxed atomic load on the serial path), so the
// public kernels call it before constructing a chunk lambda.
bool WillParallelize(int64_t flops) {
  if (in_kernel_worker) return false;
  if (flops < parallel_flops.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(pool_mu);
  if (configured_threads < 0) configured_threads = DefaultThreads();
  return configured_threads > 1;
}

// Splits [0, m) into row chunks and runs `body(begin, end)` across the
// shared pool (one chunk inline on the caller). Serial when the problem is
// small, the pool is size 1, or we are already on a kernel worker.
void ParallelRows(int64_t m, int64_t flops,
                  const std::function<void(int64_t, int64_t)>& body) {
  if (m <= 0) return;
  const int64_t threshold = parallel_flops.load(std::memory_order_relaxed);
  if (in_kernel_worker || flops < threshold) {
    body(0, m);
    return;
  }
  int threads = 1;
  util::ThreadPool* p = AcquirePool(&threads);
  // Cap fan-out so every chunk keeps at least ~half a threshold of work.
  const int64_t by_grain = std::max<int64_t>(1, (2 * flops) / threshold);
  const int64_t chunks64 = std::min<int64_t>({threads, m, by_grain});
  const int chunks = static_cast<int>(chunks64);
  if (p == nullptr || chunks <= 1) {
    body(0, m);
    return;
  }
  const int64_t base = m / chunks, rem = m % chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(chunks - 1));
  int64_t begin = base + (rem > 0 ? 1 : 0);  // Chunk 0 runs inline below.
  for (int c = 1; c < chunks; ++c) {
    const int64_t len = base + (c < rem ? 1 : 0);
    const int64_t b0 = begin, b1 = begin + len;
    begin = b1;
    futures.push_back(p->Submit([&body, b0, b1] {
      in_kernel_worker = true;
      body(b0, b1);
      in_kernel_worker = false;
    }));
  }
  body(0, base + (rem > 0 ? 1 : 0));
  for (auto& f : futures) f.get();
}

// ---------------------------------------------------------------------------
// Portable micro-kernels: the AVX2 kernels' arithmetic, one std::fma per
// multiply-add in the same order, so every path produces the same bits.
// This file is compiled with -ffp-contract=off: the compiler fuses nothing
// on its own, and every fma here is written out.
// ---------------------------------------------------------------------------

// C[i][:] += sum_l a(i, l) * B[l][:] for rows i in [r0, r1), with the A
// element at logical (i, l) stored at a[i * as_i + l * as_l]. Covers both
// Gemm (as_i = k, as_l = 1) and GemmTN (as_i = 1, as_l = m). Each element
// runs one fma per l, in l order.
void GemmAccRowsPortable(const float* __restrict a, int64_t as_i,
                         int64_t as_l, const float* __restrict b,
                         float* __restrict c, int64_t r0, int64_t r1,
                         int64_t n, int64_t k) {
  for (int64_t i = r0; i < r1; ++i) {
    float* __restrict ci = c + i * n;
    for (int64_t l = 0; l < k; ++l) {
      const float av = a[i * as_i + l * as_l];
      const float* __restrict br = b + l * n;
      for (int64_t j = 0; j < n; ++j) ci[j] = std::fma(av, br[j], ci[j]);
    }
  }
}

// The AVX2 horizontal sum (HSum) of 8 lane partials.
float HSum8(const float* s) {
  return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
}

// dot(x, y) as GemmNTRowsAvx2 and Dot8Avx2 compute it: lane t of 8 chains
// l = t, t + 8, ... below k - k % 8 from +0, HSum8 of the lanes, then one
// fma per remaining l in order.
float Dot8Portable(const float* __restrict x, const float* __restrict y,
                   int64_t k) {
  float s[8] = {};
  int64_t l = 0;
  for (; l + 8 <= k; l += 8) {
    for (int t = 0; t < 8; ++t) s[t] = std::fma(x[l + t], y[l + t], s[t]);
  }
  float r = HSum8(s);
  for (; l < k; ++l) r = std::fma(x[l], y[l], r);
  return r;
}

// The value GemmNT stores for output column j: the dot product, plus
// bias[j] in one float add when there is a bias. A null bias adds nothing.
inline float WithBias(float dot, const float* bias, int64_t j) {
  return bias != nullptr ? dot + bias[j] : dot;
}

// C[i][j] = dot(A_i, B_j) (+ bias[j]) for rows i in [r0, r1); A is
// (m x k), B is (n x k).
void GemmNTRowsPortable(const float* __restrict a, const float* __restrict b,
                        const float* bias, float* __restrict c, int64_t r0,
                        int64_t r1, int64_t n, int64_t k) {
  for (int64_t i = r0; i < r1; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      c[i * n + j] = WithBias(Dot8Portable(a + i * k, b + j * k, k), bias, j);
    }
  }
}

// Implicit-GEMM convolution works on blocks of 16 GEMM columns. Column j
// is output pixel j of the batch, as in an im2col column matrix:
// j = img * oh*ow + oy * ow + ox.
constexpr int kConvBlock = 16;

// Where the columns of one block read and write.
struct ConvBlock {
  int valid = 0;  // Columns [0, valid) exist; the rest pack as +0.
  const float* in_base = nullptr;  // The first column's image.
  // Input offset (from in_base) of tap (ch 0, ky 0, kx 0), and the input
  // coordinates of that tap, negative inside the padding.
  int32_t in_off[kConvBlock];
  int32_t iy0[kConvBlock];
  int32_t ix0[kConvBlock];
  int64_t out_off[kConvBlock];  // Output offset of channel 0.
  // Per 8-column half: every tap reads 8 consecutive floats (a stride-1
  // output row segment), and the outputs are 8 consecutive floats.
  bool in_run[2];
  bool out_run[2];
  // The same over the block's valid columns, for the 16-lane kernels.
  bool in_run16;
  bool out_run16;
};

// Fills `b` for the block starting at column j0 of `cols`.
void FillConvBlock(const ConvGeometry& g, const float* in, int64_t j0,
                   int64_t cols, ConvBlock* b) {
  const int64_t oh = g.oh(), ow = g.ow(), ohow = oh * ow;
  const int64_t chw = g.c * g.h * g.w;
  b->valid = static_cast<int>(std::min<int64_t>(kConvBlock, cols - j0));
  int64_t img = j0 / ohow, pix = j0 % ohow;
  int64_t oy = pix / ow, ox = pix % ow;
  const int64_t img0 = img;
  b->in_base = in + img0 * chw;
  for (int t = 0; t < kConvBlock; ++t) {
    if (t >= b->valid) {
      // Far above the image, so every tap of a missing column is masked.
      b->iy0[t] = INT32_MIN / 2;
      b->in_off[t] = b->ix0[t] = 0;
      b->out_off[t] = 0;
      continue;
    }
    const int64_t iy = oy * g.s - g.p, ix = ox * g.s - g.p;
    b->iy0[t] = static_cast<int32_t>(iy);
    b->ix0[t] = static_cast<int32_t>(ix);
    b->in_off[t] = static_cast<int32_t>((img - img0) * chw + iy * g.w + ix);
    b->out_off[t] = img * g.out_ch * ohow + pix;
    ++pix;
    if (++ox == ow) {
      ox = 0;
      if (++oy == oh) {
        oy = 0;
        pix = 0;
        ++img;
      }
    }
  }
  for (int hf = 0; hf < 2; ++hf) {
    const int t0 = hf * 8;
    bool in_run = b->valid >= t0 + 8, out_run = in_run;
    for (int t = 1; t < 8 && (in_run || out_run); ++t) {
      in_run = in_run && b->in_off[t0 + t] == b->in_off[t0] + t;
      out_run = out_run && b->out_off[t0 + t] == b->out_off[t0] + t;
    }
    b->in_run[hf] = in_run;
    b->out_run[hf] = out_run;
  }
  b->in_run16 = b->out_run16 = true;
  for (int t = 1; t < b->valid; ++t) {
    b->in_run16 = b->in_run16 && b->in_off[t] == b->in_off[0] + t;
    b->out_run16 = b->out_run16 && b->out_off[t] == b->out_off[0] + t;
  }
}

// The block's lane masks: masks[(ky*k + kx)*16 + t] is -1 when column t
// exists and its tap (ky, kx) lies inside the image, 0 when it is padding.
// The 2*k*16 ints after the k*k*16 tap masks are scratch for the row and
// column masks.
void FillConvMasks(const ConvGeometry& g, const ConvBlock& b,
                   int32_t* masks) {
  // Unsigned compares test 0 <= v < bound in one go; 32-bit lanes let the
  // compiler vectorize these loops.
  int32_t* rows = masks + g.k * g.k * kConvBlock;
  int32_t* cols_in = rows + g.k * kConvBlock;
  const uint32_t h = static_cast<uint32_t>(g.h);
  const uint32_t w = static_cast<uint32_t>(g.w);
  for (int d = 0; d < g.k; ++d) {
    for (int t = 0; t < kConvBlock; ++t) {
      rows[d * kConvBlock + t] =
          -static_cast<int32_t>(static_cast<uint32_t>(b.iy0[t] + d) < h);
      cols_in[d * kConvBlock + t] =
          -static_cast<int32_t>(static_cast<uint32_t>(b.ix0[t] + d) < w);
    }
  }
  for (int ky = 0; ky < g.k; ++ky) {
    for (int kx = 0; kx < g.k; ++kx) {
      int32_t* m = masks + (ky * g.k + kx) * kConvBlock;
      for (int t = 0; t < kConvBlock; ++t) {
        m[t] = rows[ky * kConvBlock + t] & cols_in[kx * kConvBlock + t];
      }
    }
  }
}

// Packs the block's (c*k*k) x 16 B panel, row l = (ch*k + ky)*k + kx:
// exactly the block's 16 columns of the im2col matrix, padding as +0.
void PackConvPanelPortable(const ConvGeometry& g, const ConvBlock& b,
                           const int32_t* masks, float* panel) {
  const int64_t hw = g.h * g.w;
  float* dst = panel;
  for (int64_t ch = 0; ch < g.c; ++ch) {
    for (int ky = 0; ky < g.k; ++ky) {
      for (int kx = 0; kx < g.k; ++kx, dst += kConvBlock) {
        const float* src = b.in_base + ch * hw + ky * g.w + kx;
        const int32_t* m = masks + (ky * g.k + kx) * kConvBlock;
        for (int t = 0; t < kConvBlock; ++t) {
          dst[t] = m[t] != 0 ? src[b.in_off[t]] : 0.0f;
        }
      }
    }
  }
}

// Stores one output channel's accumulators for the block's columns, with
// one float add of the bias when there is one.
void StoreConvRowPortable(const float* acc, const float* bias, int64_t oc,
                          const ConvBlock& b, float* out, int64_t ohow) {
  float* dst = out + oc * ohow;
  if (bias != nullptr) {
    const float add = bias[oc];
    for (int t = 0; t < b.valid; ++t) dst[b.out_off[t]] = acc[t] + add;
  } else {
    for (int t = 0; t < b.valid; ++t) dst[b.out_off[t]] = acc[t];
  }
}

// Output rows [0, m) of one block from its packed panel, with
// GemmAccRowsPortable's fma chain per element from +0.
void ConvComputePortable(const float* __restrict a, const float* bias,
                         const float* __restrict panel, int64_t m,
                         int64_t kk, const ConvBlock& b, float* out,
                         int64_t ohow) {
  for (int64_t i = 0; i < m; ++i) {
    float c[kConvBlock] = {};
    for (int64_t l = 0; l < kk; ++l) {
      const float av = a[i * kk + l];
      const float* __restrict br = panel + l * kConvBlock;
      for (int j = 0; j < kConvBlock; ++j) c[j] = std::fma(av, br[j], c[j]);
    }
    StoreConvRowPortable(c, bias, i, b, out, ohow);
  }
}

// dot(x, y) as DotAvx2 computes it: two 8-lane chain sets over 16-float
// steps (lanes l % 16 < 8 and >= 8), one more 8-float step into the first
// set, the two sets added lane by lane, HSum8, then one fma per remaining
// l in order.
float DotPortable(const float* __restrict x, const float* __restrict y,
                  int64_t k) {
  float s0[8] = {}, s1[8] = {};
  int64_t l = 0;
  for (; l + 16 <= k; l += 16) {
    for (int t = 0; t < 8; ++t) {
      s0[t] = std::fma(x[l + t], y[l + t], s0[t]);
      s1[t] = std::fma(x[l + 8 + t], y[l + 8 + t], s1[t]);
    }
  }
  for (; l + 8 <= k; l += 8) {
    for (int t = 0; t < 8; ++t) s0[t] = std::fma(x[l + t], y[l + t], s0[t]);
  }
  for (int t = 0; t < 8; ++t) s0[t] += s1[t];
  float r = HSum8(s0);
  for (; l < k; ++l) r = std::fma(x[l], y[l], r);
  return r;
}

// ---------------------------------------------------------------------------
// AVX2 + FMA micro-kernels (x86-64, runtime-dispatched).
// ---------------------------------------------------------------------------

#if defined(EF_KERNELS_X86)

__attribute__((target("avx2,fma"))) inline float HSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
  return _mm_cvtss_f32(lo);
}

// Same contract as GemmAccRowsPortable. Register tile: 4 C rows x 16
// columns (8 ymm accumulators); per k step, 2 B loads + 4 A broadcasts
// feed 8 FMAs.
__attribute__((target("avx2,fma"))) void GemmAccRowsAvx2(
    const float* __restrict a, int64_t as_i, int64_t as_l,
    const float* __restrict b, float* __restrict c, int64_t r0, int64_t r1,
    int64_t n, int64_t k) {
  for (int64_t l0 = 0; l0 < k; l0 += kKc) {
    const int64_t lmax = std::min(l0 + kKc, k);
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      int64_t i = r0;
      for (; i + 4 <= r1; i += 4) {
        float* c0 = c + (i + 0) * n + j;
        float* c1 = c + (i + 1) * n + j;
        float* c2 = c + (i + 2) * n + j;
        float* c3 = c + (i + 3) * n + j;
        __m256 acc00 = _mm256_loadu_ps(c0);
        __m256 acc01 = _mm256_loadu_ps(c0 + 8);
        __m256 acc10 = _mm256_loadu_ps(c1);
        __m256 acc11 = _mm256_loadu_ps(c1 + 8);
        __m256 acc20 = _mm256_loadu_ps(c2);
        __m256 acc21 = _mm256_loadu_ps(c2 + 8);
        __m256 acc30 = _mm256_loadu_ps(c3);
        __m256 acc31 = _mm256_loadu_ps(c3 + 8);
        for (int64_t l = l0; l < lmax; ++l) {
          const __m256 b0 = _mm256_loadu_ps(b + l * n + j);
          const __m256 b1 = _mm256_loadu_ps(b + l * n + j + 8);
          __m256 av = _mm256_broadcast_ss(a + (i + 0) * as_i + l * as_l);
          acc00 = _mm256_fmadd_ps(av, b0, acc00);
          acc01 = _mm256_fmadd_ps(av, b1, acc01);
          av = _mm256_broadcast_ss(a + (i + 1) * as_i + l * as_l);
          acc10 = _mm256_fmadd_ps(av, b0, acc10);
          acc11 = _mm256_fmadd_ps(av, b1, acc11);
          av = _mm256_broadcast_ss(a + (i + 2) * as_i + l * as_l);
          acc20 = _mm256_fmadd_ps(av, b0, acc20);
          acc21 = _mm256_fmadd_ps(av, b1, acc21);
          av = _mm256_broadcast_ss(a + (i + 3) * as_i + l * as_l);
          acc30 = _mm256_fmadd_ps(av, b0, acc30);
          acc31 = _mm256_fmadd_ps(av, b1, acc31);
        }
        _mm256_storeu_ps(c0, acc00);
        _mm256_storeu_ps(c0 + 8, acc01);
        _mm256_storeu_ps(c1, acc10);
        _mm256_storeu_ps(c1 + 8, acc11);
        _mm256_storeu_ps(c2, acc20);
        _mm256_storeu_ps(c2 + 8, acc21);
        _mm256_storeu_ps(c3, acc30);
        _mm256_storeu_ps(c3 + 8, acc31);
      }
      for (; i < r1; ++i) {
        float* ci = c + i * n + j;
        __m256 acc0 = _mm256_loadu_ps(ci);
        __m256 acc1 = _mm256_loadu_ps(ci + 8);
        for (int64_t l = l0; l < lmax; ++l) {
          const __m256 av = _mm256_broadcast_ss(a + i * as_i + l * as_l);
          acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + l * n + j), acc0);
          acc1 =
              _mm256_fmadd_ps(av, _mm256_loadu_ps(b + l * n + j + 8), acc1);
        }
        _mm256_storeu_ps(ci, acc0);
        _mm256_storeu_ps(ci + 8, acc1);
      }
    }
    for (; j + 8 <= n; j += 8) {
      for (int64_t i = r0; i < r1; ++i) {
        __m256 acc = _mm256_loadu_ps(c + i * n + j);
        for (int64_t l = l0; l < lmax; ++l) {
          const __m256 av = _mm256_broadcast_ss(a + i * as_i + l * as_l);
          acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + l * n + j), acc);
        }
        _mm256_storeu_ps(c + i * n + j, acc);
      }
    }
    if (j < n) {
      // Masked 8-wide tail: kept lanes see the exact fmadd sequence of the
      // full-width paths, so an element's bits do not depend on which side
      // of a tile boundary its column index falls (and narrow-n calls stay
      // vectorized). Masked-out lanes load as zero and are never stored.
      alignas(32) int32_t mi[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (int64_t t = 0; t < n - j; ++t) mi[t] = -1;
      const __m256i mask =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(mi));
      int64_t i = r0;
      // Four rows at a time: independent accumulator chains hide the fmadd
      // latency when the tail is the whole matrix (narrow n).
      for (; i + 4 <= r1; i += 4) {
        float* c0 = c + i * n;
        float* c1 = c0 + n;
        float* c2 = c1 + n;
        float* c3 = c2 + n;
        __m256 acc0 = _mm256_maskload_ps(c0 + j, mask);
        __m256 acc1 = _mm256_maskload_ps(c1 + j, mask);
        __m256 acc2 = _mm256_maskload_ps(c2 + j, mask);
        __m256 acc3 = _mm256_maskload_ps(c3 + j, mask);
        for (int64_t l = l0; l < lmax; ++l) {
          const __m256 bv = _mm256_maskload_ps(b + l * n + j, mask);
          const float* al = a + l * as_l;
          acc0 = _mm256_fmadd_ps(_mm256_set1_ps(al[i * as_i]), bv, acc0);
          acc1 = _mm256_fmadd_ps(_mm256_set1_ps(al[(i + 1) * as_i]), bv, acc1);
          acc2 = _mm256_fmadd_ps(_mm256_set1_ps(al[(i + 2) * as_i]), bv, acc2);
          acc3 = _mm256_fmadd_ps(_mm256_set1_ps(al[(i + 3) * as_i]), bv, acc3);
        }
        _mm256_maskstore_ps(c0 + j, mask, acc0);
        _mm256_maskstore_ps(c1 + j, mask, acc1);
        _mm256_maskstore_ps(c2 + j, mask, acc2);
        _mm256_maskstore_ps(c3 + j, mask, acc3);
      }
      for (; i < r1; ++i) {
        float* ci = c + i * n;
        __m256 acc = _mm256_maskload_ps(ci + j, mask);
        for (int64_t l = l0; l < lmax; ++l) {
          const __m256 av = _mm256_set1_ps(a[i * as_i + l * as_l]);
          const __m256 bv = _mm256_maskload_ps(b + l * n + j, mask);
          acc = _mm256_fmadd_ps(av, bv, acc);
        }
        _mm256_maskstore_ps(ci + j, mask, acc);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) inline float DotAvx2(
    const float* __restrict x, const float* __restrict y, int64_t k) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t l = 0;
  for (; l + 16 <= k; l += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + l), _mm256_loadu_ps(y + l),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + l + 8),
                           _mm256_loadu_ps(y + l + 8), acc1);
  }
  for (; l + 8 <= k; l += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + l), _mm256_loadu_ps(y + l),
                           acc0);
  }
  float s = HSum(_mm256_add_ps(acc0, acc1));
  for (; l < k; ++l) s = std::fma(x[l], y[l], s);
  return s;
}

// Single-accumulator 8-wide dot with the exact accumulation order of the
// 2x4 GemmNT register tile (one fma chain, horizontal sum, scalar tail).
// The GemmNT tail rows/columns must use this — NOT DotAvx2, whose two-
// accumulator 16-wide unroll sums in a different order — so that a C row's
// bits never depend on where the row partition or tile boundary falls.
__attribute__((target("avx2,fma"))) inline float Dot8Avx2(
    const float* __restrict x, const float* __restrict y, int64_t k) {
  __m256 acc = _mm256_setzero_ps();
  int64_t l = 0;
  for (; l + 8 <= k; l += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + l), _mm256_loadu_ps(y + l),
                          acc);
  }
  float s = HSum(acc);
  for (; l < k; ++l) s = std::fma(x[l], y[l], s);
  return s;
}

// Dot-product orientation for C = A * B^T. Register tile: 2 A rows x 4 B
// rows, vectorized over k; per k step 6 loads feed 8 FMAs, and each tile
// ends in 8 horizontal sums (amortized over the whole k sweep). Every store
// adds the bias, as GemmNTRowsPortable's does.
__attribute__((target("avx2,fma"))) void GemmNTRowsAvx2(
    const float* __restrict a, const float* __restrict b, const float* bias,
    float* __restrict c, int64_t r0, int64_t r1, int64_t n, int64_t k) {
  int64_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    const float* a0 = a + (i + 0) * k;
    const float* a1 = a + (i + 1) * k;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + (j + 0) * k;
      const float* b1 = b + (j + 1) * k;
      const float* b2 = b + (j + 2) * k;
      const float* b3 = b + (j + 3) * k;
      __m256 s00 = _mm256_setzero_ps(), s01 = _mm256_setzero_ps();
      __m256 s02 = _mm256_setzero_ps(), s03 = _mm256_setzero_ps();
      __m256 s10 = _mm256_setzero_ps(), s11 = _mm256_setzero_ps();
      __m256 s12 = _mm256_setzero_ps(), s13 = _mm256_setzero_ps();
      int64_t l = 0;
      for (; l + 8 <= k; l += 8) {
        const __m256 va0 = _mm256_loadu_ps(a0 + l);
        const __m256 va1 = _mm256_loadu_ps(a1 + l);
        __m256 vb = _mm256_loadu_ps(b0 + l);
        s00 = _mm256_fmadd_ps(va0, vb, s00);
        s10 = _mm256_fmadd_ps(va1, vb, s10);
        vb = _mm256_loadu_ps(b1 + l);
        s01 = _mm256_fmadd_ps(va0, vb, s01);
        s11 = _mm256_fmadd_ps(va1, vb, s11);
        vb = _mm256_loadu_ps(b2 + l);
        s02 = _mm256_fmadd_ps(va0, vb, s02);
        s12 = _mm256_fmadd_ps(va1, vb, s12);
        vb = _mm256_loadu_ps(b3 + l);
        s03 = _mm256_fmadd_ps(va0, vb, s03);
        s13 = _mm256_fmadd_ps(va1, vb, s13);
      }
      float r00 = HSum(s00), r01 = HSum(s01), r02 = HSum(s02),
            r03 = HSum(s03);
      float r10 = HSum(s10), r11 = HSum(s11), r12 = HSum(s12),
            r13 = HSum(s13);
      for (; l < k; ++l) {
        const float x0 = a0[l], x1 = a1[l];
        r00 = std::fma(x0, b0[l], r00);
        r01 = std::fma(x0, b1[l], r01);
        r02 = std::fma(x0, b2[l], r02);
        r03 = std::fma(x0, b3[l], r03);
        r10 = std::fma(x1, b0[l], r10);
        r11 = std::fma(x1, b1[l], r11);
        r12 = std::fma(x1, b2[l], r12);
        r13 = std::fma(x1, b3[l], r13);
      }
      float* c0 = c + (i + 0) * n + j;
      float* c1 = c + (i + 1) * n + j;
      c0[0] = WithBias(r00, bias, j + 0);
      c0[1] = WithBias(r01, bias, j + 1);
      c0[2] = WithBias(r02, bias, j + 2);
      c0[3] = WithBias(r03, bias, j + 3);
      c1[0] = WithBias(r10, bias, j + 0);
      c1[1] = WithBias(r11, bias, j + 1);
      c1[2] = WithBias(r12, bias, j + 2);
      c1[3] = WithBias(r13, bias, j + 3);
    }
    for (; j < n; ++j) {
      const float* bj = b + j * k;
      c[(i + 0) * n + j] = WithBias(Dot8Avx2(a0, bj, k), bias, j);
      c[(i + 1) * n + j] = WithBias(Dot8Avx2(a1, bj, k), bias, j);
    }
  }
  for (; i < r1; ++i) {
    const float* ai = a + i * k;
    for (int64_t j = 0; j < n; ++j) {
      c[i * n + j] = WithBias(Dot8Avx2(ai, b + j * k, k), bias, j);
    }
  }
}

__attribute__((target("avx2,fma"))) void GemvRowsAvx2(
    const float* __restrict w, const float* __restrict x, float* __restrict y,
    int64_t r0, int64_t r1, int64_t n) {
  for (int64_t i = r0; i < r1; ++i) y[i] = DotAvx2(w + i * n, x, n);
}

__attribute__((target("avx2,fma"))) void GemvTAvx2(const float* __restrict w,
                                                   const float* __restrict x,
                                                   float* __restrict y,
                                                   int64_t m, int64_t n) {
  std::memset(y, 0, static_cast<size_t>(n) * sizeof(float));
  for (int64_t i = 0; i < m; ++i) {
    const __m256 xv = _mm256_broadcast_ss(x + i);
    const float* row = w + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 acc = _mm256_fmadd_ps(xv, _mm256_loadu_ps(row + j),
                                         _mm256_loadu_ps(y + j));
      _mm256_storeu_ps(y + j, acc);
    }
    const float xs = x[i];
    for (; j < n; ++j) y[j] = std::fma(xs, row[j], y[j]);
  }
}

// tanh over 8 lanes, bit-identical to the host's scalar tanhf. glibc's
// float tanhf/expm1f are fdlibm's (s_tanhf.c, s_expm1f.c); this body runs
// their float operations in their order on every lane, computes every
// range branch and blends the one each lane takes. The file is compiled
// with -ffp-contract=off, so no multiply-add is contracted. Branches
// that tanh never reaches are left out: expm1f sees only 2|x| in [2, 44)
// (k in [3, 63]) or -2|x| in (-2, -2^-54] (k in [-3, 0]), so the k = +1
// case and the huge/-1 saturation filters cannot occur.
__attribute__((target("avx2"))) inline __m256 TanhLanesAvx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i ix = _mm256_and_si256(_mm256_castps_si256(x), abs_mask);
  const __m256 ax = _mm256_castsi256_ps(ix);
  const __m256 sign = _mm256_andnot_ps(_mm256_castsi256_ps(abs_mask), x);
  // tanhf: |x| >= 1 takes expm1f(2|x|), |x| < 1 takes expm1f(-2|x|).
  const __m256 big = _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7fffff)));
  const __m256 a2 = _mm256_add_ps(ax, ax);  // |arg|, exact.
  const __m256 neg_sign = _mm256_andnot_ps(big, _mm256_set1_ps(-0.0f));
  const __m256 arg = _mm256_or_ps(a2, neg_sign);

  // expm1f argument reduction: arg = k*ln2 + xr - c.
  const __m256i hx = _mm256_castps_si256(a2);
  const __m256 reduce = _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(0x3eb17218)));
  const __m256 k_minus_one = _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f851592), hx));
  const __m256 ln2_hi = _mm256_set1_ps(6.9313812256e-01f);
  const __m256 ln2_lo = _mm256_set1_ps(9.0580006145e-06f);
  const __m256 kf = _mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(1.4426950216e+00f), arg),
      _mm256_or_ps(half, neg_sign));
  __m256i k = _mm256_cvttps_epi32(kf);
  const __m256 tk = _mm256_cvtepi32_ps(k);
  __m256 hi = _mm256_sub_ps(arg, _mm256_mul_ps(tk, ln2_hi));
  __m256 lo = _mm256_mul_ps(tk, ln2_lo);
  // 0.5 ln2 < |arg| < 1.5 ln2 (negative arg only): k = -1 exactly.
  hi = _mm256_blendv_ps(hi, _mm256_add_ps(arg, ln2_hi), k_minus_one);
  lo = _mm256_blendv_ps(lo, _mm256_xor_ps(ln2_lo, _mm256_set1_ps(-0.0f)),
                        k_minus_one);
  k = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(k), _mm256_castsi256_ps(_mm256_set1_epi32(-1)),
      k_minus_one));
  const __m256 xred = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xred), lo);
  const __m256 xr = _mm256_blendv_ps(arg, xred, reduce);
  k = _mm256_and_si256(k, _mm256_castps_si256(reduce));  // k = 0 if not.

  // Primary range.
  const __m256 hfx = _mm256_mul_ps(xr, half);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 r1 = _mm256_mul_ps(_mm256_set1_ps(-2.0109921195e-07f), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(_mm256_set1_ps(4.0082177293e-06f), r1),
                     hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(_mm256_set1_ps(-7.9365076090e-05f), r1),
                     hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(_mm256_set1_ps(1.5873016091e-03f), r1),
                     hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(_mm256_set1_ps(-3.3333335072e-02f), r1),
                     hxs);
  r1 = _mm256_add_ps(one, r1);
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(xr, t))));
  // k = 0: |arg| < 2^-25 returns arg itself, otherwise xr - (xr*e - hxs).
  const __m256 tiny_arg = _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(0x33000000), hx));
  const __m256 res_k0 = _mm256_blendv_ps(
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs)), arg,
      tiny_arg);
  // k != 0.
  const __m256 e2 = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 res_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e2)), half);
  // k <= -2 or k > 56: y = 1 - (e2 - xr), scaled by 2^k, minus 1.
  // 2 <= k <= 22: y = (1 - 2^-k) - (e2 - xr), scaled by 2^k.
  // 23 <= k <= 56: y = (xr - (e2 + 2^-k)) + 1, scaled by 2^k.
  // The scaling adds k to the exponent field as an integer.
  const __m256i path_a = _mm256_or_si256(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
      _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)));
  const __m256i path_c = _mm256_andnot_si256(
      path_a, _mm256_cmpgt_epi32(k, _mm256_set1_epi32(22)));
  const __m256 one_minus_pow = _mm256_castsi256_ps(_mm256_sub_epi32(
      _mm256_set1_epi32(0x3f800000),
      _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 base =
      _mm256_blendv_ps(one_minus_pow, one, _mm256_castsi256_ps(path_a));
  const __m256 y_ab = _mm256_sub_ps(base, _mm256_sub_ps(e2, xr));
  const __m256 pow_minus_k = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 y_c =
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e2, pow_minus_k)), one);
  __m256 y = _mm256_blendv_ps(y_ab, y_c, _mm256_castsi256_ps(path_c));
  y = _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
  y = _mm256_blendv_ps(y, _mm256_sub_ps(y, one), _mm256_castsi256_ps(path_a));
  __m256 em = _mm256_blendv_ps(
      y, res_km1,
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))));
  em = _mm256_blendv_ps(
      em, res_k0,
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())));

  // tanhf: |x| >= 1 gives 1 - 2/(em + 2), |x| < 1 gives -em/(em + 2); one
  // division serves both.
  const __m256 num =
      _mm256_blendv_ps(_mm256_xor_ps(em, _mm256_set1_ps(-0.0f)), two, big);
  const __m256 q = _mm256_div_ps(num, _mm256_add_ps(em, two));
  __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), big);
  // |x| >= 22 and +-Inf: +-1 (fdlibm's 1 - tiny and 1/x +- 1 round to it).
  z = _mm256_blendv_ps(
      z, one,
      _mm256_castsi256_ps(
          _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41afffff))));
  __m256 r = _mm256_xor_ps(z, sign);
  // |x| < 2^-55, zeros included: x * (1 + x).
  r = _mm256_blendv_ps(
      r, _mm256_mul_ps(x, _mm256_add_ps(one, x)),
      _mm256_castsi256_ps(
          _mm256_cmpgt_epi32(_mm256_set1_epi32(0x24000000), ix)));
  // NaN: 1/x +- 1 returns x quieted, which is x + x.
  return _mm256_blendv_ps(
      r, _mm256_add_ps(x, x),
      _mm256_castsi256_ps(
          _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f800000))));
}

// y[i] = tanh(x[i]) for i in [0, n - n % 8); the caller does the tail.
__attribute__((target("avx2"))) void TanhAvx2(const float* x, float* y,
                                              int64_t n) {
  for (int64_t i = 0; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, TanhLanesAvx2(_mm256_loadu_ps(x + i)));
  }
}

// Same contract as PackConvPanelPortable. A half whose taps are 8
// consecutive floats takes one masked load per tap, any other half one
// masked gather; masked-off lanes are +0 and are never read.
__attribute__((target("avx2,fma"))) void PackConvPanelAvx2(
    const ConvGeometry& g, const ConvBlock& b, const int32_t* masks,
    int halves, float* panel) {
  const int64_t hw = g.h * g.w;
  float* dst = panel;
  if (halves == 2 && b.in_run[0] && b.in_run[1]) {
    // The common stride-1 case, without the per-tap dispatch.
    const float* src0 = b.in_base + b.in_off[0];
    const float* src1 = b.in_base + b.in_off[8];
    for (int64_t ch = 0; ch < g.c; ++ch) {
      const int32_t* m = masks;
      for (int ky = 0; ky < g.k; ++ky) {
        for (int kx = 0; kx < g.k; ++kx, dst += kConvBlock, m += kConvBlock) {
          const int64_t off = ch * hw + ky * g.w + kx;
          const __m256i m0 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m));
          const __m256i m1 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 8));
          _mm256_storeu_ps(dst, _mm256_maskload_ps(src0 + off, m0));
          _mm256_storeu_ps(dst + 8, _mm256_maskload_ps(src1 + off, m1));
        }
      }
    }
    return;
  }
  const __m256 zero = _mm256_setzero_ps();
  const __m256i idx[2] = {
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.in_off)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.in_off + 8))};
  for (int64_t ch = 0; ch < g.c; ++ch) {
    const int32_t* m = masks;
    for (int ky = 0; ky < g.k; ++ky) {
      for (int kx = 0; kx < g.k; ++kx, dst += kConvBlock, m += kConvBlock) {
        const float* src = b.in_base + ch * hw + ky * g.w + kx;
        for (int hf = 0; hf < halves; ++hf) {
          const __m256i mask =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + hf * 8));
          const __m256 v =
              b.in_run[hf]
                  ? _mm256_maskload_ps(src + b.in_off[hf * 8], mask)
                  : _mm256_mask_i32gather_ps(zero, src, idx[hf],
                                             _mm256_castsi256_ps(mask), 4);
          _mm256_storeu_ps(dst + hf * 8, v);
        }
      }
    }
  }
}

// Stores 8 columns (half `hf` of the block) of output channel `oc`.
__attribute__((target("avx2,fma"))) inline void StoreConvLanesAvx2(
    __m256 v, const float* bias, int64_t oc, int hf, const ConvBlock& b,
    float* out, int64_t ohow) {
  if (bias != nullptr) v = _mm256_add_ps(v, _mm256_set1_ps(bias[oc]));
  float* dst = out + oc * ohow;
  const int t0 = hf * 8;
  if (b.out_run[hf]) {
    _mm256_storeu_ps(dst + b.out_off[t0], v);
    return;
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, v);
  const int n = std::min(8, b.valid - t0);
  for (int t = 0; t < n; ++t) dst[b.out_off[t0 + t]] = lanes[t];
}

// Same contract as ConvComputePortable, with GemmAccRowsAvx2's register
// tile (4 rows x 8*kHalves columns) and its fmadd chain per element.
template <int kHalves>
__attribute__((target("avx2,fma"))) void ConvComputeAvx2(
    const float* __restrict a, const float* bias,
    const float* __restrict panel, int64_t m, int64_t kk, const ConvBlock& b,
    float* out, int64_t ohow) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * kk;
    const float* a1 = a0 + kk;
    const float* a2 = a1 + kk;
    const float* a3 = a2 + kk;
    __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
    __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
    __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
    __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
    for (int64_t l = 0; l < kk; ++l) {
      const float* br = panel + l * kConvBlock;
      const __m256 b0 = _mm256_loadu_ps(br);
      __m256 av = _mm256_broadcast_ss(a0 + l);
      acc00 = _mm256_fmadd_ps(av, b0, acc00);
      if constexpr (kHalves == 2) {
        const __m256 b1 = _mm256_loadu_ps(br + 8);
        acc01 = _mm256_fmadd_ps(av, b1, acc01);
        av = _mm256_broadcast_ss(a1 + l);
        acc10 = _mm256_fmadd_ps(av, b0, acc10);
        acc11 = _mm256_fmadd_ps(av, b1, acc11);
        av = _mm256_broadcast_ss(a2 + l);
        acc20 = _mm256_fmadd_ps(av, b0, acc20);
        acc21 = _mm256_fmadd_ps(av, b1, acc21);
        av = _mm256_broadcast_ss(a3 + l);
        acc30 = _mm256_fmadd_ps(av, b0, acc30);
        acc31 = _mm256_fmadd_ps(av, b1, acc31);
      } else {
        acc10 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + l), b0, acc10);
        acc20 = _mm256_fmadd_ps(_mm256_broadcast_ss(a2 + l), b0, acc20);
        acc30 = _mm256_fmadd_ps(_mm256_broadcast_ss(a3 + l), b0, acc30);
      }
    }
    StoreConvLanesAvx2(acc00, bias, i + 0, 0, b, out, ohow);
    StoreConvLanesAvx2(acc10, bias, i + 1, 0, b, out, ohow);
    StoreConvLanesAvx2(acc20, bias, i + 2, 0, b, out, ohow);
    StoreConvLanesAvx2(acc30, bias, i + 3, 0, b, out, ohow);
    if constexpr (kHalves == 2) {
      StoreConvLanesAvx2(acc01, bias, i + 0, 1, b, out, ohow);
      StoreConvLanesAvx2(acc11, bias, i + 1, 1, b, out, ohow);
      StoreConvLanesAvx2(acc21, bias, i + 2, 1, b, out, ohow);
      StoreConvLanesAvx2(acc31, bias, i + 3, 1, b, out, ohow);
    }
  }
  for (; i < m; ++i) {
    const float* ai = a + i * kk;
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    for (int64_t l = 0; l < kk; ++l) {
      const __m256 av = _mm256_broadcast_ss(ai + l);
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(panel + l * kConvBlock),
                             acc0);
      if constexpr (kHalves == 2) {
        acc1 = _mm256_fmadd_ps(
            av, _mm256_loadu_ps(panel + l * kConvBlock + 8), acc1);
      }
    }
    StoreConvLanesAvx2(acc0, bias, i, 0, b, out, ohow);
    if constexpr (kHalves == 2) {
      StoreConvLanesAvx2(acc1, bias, i, 1, b, out, ohow);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX-512 micro-kernels (x86-64, runtime-dispatched): 16 lanes, the same
// per-element arithmetic as the AVX2 kernels above.
// ---------------------------------------------------------------------------

#define EF_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma")))

// GCC 12's avx512fintrin.h builds _mm512_undefined_* from a self-
// initialized variable, which -Wuninitialized reports in every caller of
// the intrinsics that use it, and -Wmaybe-uninitialized once such a caller
// is inlined into the four-vector tanh below.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define EF_AVX512_INLINE EF_AVX512 inline __attribute__((always_inline))

// N independent 16-lane vectors (or their k-masks) that go through each
// operation together. One vector's tanh is a chain of about 45 dependent
// operations, two of them divisions: longer than the out-of-order window
// overlaps, so unrolling a one-vector loop gains nothing. Running N
// chains operation by operation lets the core overlap them.
template <int N>
struct Ps {
  __m512 v[N];
};
template <int N>
struct Pi {
  __m512i v[N];
};
template <int N>
struct Pk {
  __mmask16 v[N];
};

// Defines `Pack<N> name params`, which returns `expr` evaluated for each
// vector j of its arguments. The loop is unrolled, so the N operations are
// separate instructions.
#define EF_LANEWISE(Pack, name, params, expr)              \
  template <int N>                                         \
  EF_AVX512_INLINE Pack<N> name params {                   \
    Pack<N> r;                                             \
    _Pragma("GCC unroll 16") for (int j = 0; j < N; ++j) { \
      r.v[j] = expr;                                       \
    }                                                      \
    return r;                                              \
  }

EF_LANEWISE(Ps, Set1, (float c), _mm512_set1_ps(c))
EF_LANEWISE(Pi, Set1, (int32_t c), _mm512_set1_epi32(c))
EF_LANEWISE(Pi, CastI, (const Ps<N>& a), _mm512_castps_si512(a.v[j]))
EF_LANEWISE(Ps, CastF, (const Pi<N>& a), _mm512_castsi512_ps(a.v[j]))
EF_LANEWISE(Pi, CvttPs, (const Ps<N>& a), _mm512_cvttps_epi32(a.v[j]))
EF_LANEWISE(Ps, CvtEpi32, (const Pi<N>& a), _mm512_cvtepi32_ps(a.v[j]))
EF_LANEWISE(Ps, Add, (const Ps<N>& a, const Ps<N>& b),
            _mm512_add_ps(a.v[j], b.v[j]))
EF_LANEWISE(Pi, Add, (const Pi<N>& a, const Pi<N>& b),
            _mm512_add_epi32(a.v[j], b.v[j]))
EF_LANEWISE(Ps, Sub, (const Ps<N>& a, const Ps<N>& b),
            _mm512_sub_ps(a.v[j], b.v[j]))
EF_LANEWISE(Pi, Sub, (const Pi<N>& a, const Pi<N>& b),
            _mm512_sub_epi32(a.v[j], b.v[j]))
EF_LANEWISE(Ps, Mul, (const Ps<N>& a, const Ps<N>& b),
            _mm512_mul_ps(a.v[j], b.v[j]))
EF_LANEWISE(Ps, Div, (const Ps<N>& a, const Ps<N>& b),
            _mm512_div_ps(a.v[j], b.v[j]))
EF_LANEWISE(Ps, And, (const Ps<N>& a, const Ps<N>& b),
            _mm512_and_ps(a.v[j], b.v[j]))
EF_LANEWISE(Pi, And, (const Pi<N>& a, const Pi<N>& b),
            _mm512_and_si512(a.v[j], b.v[j]))
EF_LANEWISE(Ps, Or, (const Ps<N>& a, const Ps<N>& b),
            _mm512_or_ps(a.v[j], b.v[j]))
EF_LANEWISE(Ps, Xor, (const Ps<N>& a, const Ps<N>& b),
            _mm512_xor_ps(a.v[j], b.v[j]))
EF_LANEWISE(Pi, Shl23, (const Pi<N>& a), _mm512_slli_epi32(a.v[j], 23))
EF_LANEWISE(Pi, Srlv, (const Pi<N>& a, const Pi<N>& b),
            _mm512_srlv_epi32(a.v[j], b.v[j]))
EF_LANEWISE(Pk, CmpGt, (const Pi<N>& a, const Pi<N>& b),
            _mm512_cmpgt_epi32_mask(a.v[j], b.v[j]))
EF_LANEWISE(Pk, CmpEq, (const Pi<N>& a, const Pi<N>& b),
            _mm512_cmpeq_epi32_mask(a.v[j], b.v[j]))
EF_LANEWISE(Pk, KNot, (const Pk<N>& a), _knot_mask16(a.v[j]))
EF_LANEWISE(Pk, KOr, (const Pk<N>& a, const Pk<N>& b),
            _kor_mask16(a.v[j], b.v[j]))
EF_LANEWISE(Pk, KAndN, (const Pk<N>& a, const Pk<N>& b),
            _kandn_mask16(a.v[j], b.v[j]))
EF_LANEWISE(Ps, MaskMov, (const Ps<N>& s, const Pk<N>& m, const Ps<N>& a),
            _mm512_mask_mov_ps(s.v[j], m.v[j], a.v[j]))
EF_LANEWISE(Pi, MaskMov, (const Pi<N>& s, const Pk<N>& m, const Pi<N>& a),
            _mm512_mask_mov_epi32(s.v[j], m.v[j], a.v[j]))
EF_LANEWISE(Ps, MaskzMov, (const Pk<N>& m, const Ps<N>& a),
            _mm512_maskz_mov_ps(m.v[j], a.v[j]))
EF_LANEWISE(Pi, MaskzMov, (const Pk<N>& m, const Pi<N>& a),
            _mm512_maskz_mov_epi32(m.v[j], a.v[j]))
EF_LANEWISE(Ps, MaskAdd,
            (const Ps<N>& s, const Pk<N>& m, const Ps<N>& a, const Ps<N>& b),
            _mm512_mask_add_ps(s.v[j], m.v[j], a.v[j], b.v[j]))
EF_LANEWISE(Ps, MaskSub,
            (const Ps<N>& s, const Pk<N>& m, const Ps<N>& a, const Ps<N>& b),
            _mm512_mask_sub_ps(s.v[j], m.v[j], a.v[j], b.v[j]))
EF_LANEWISE(Ps, MaskMul,
            (const Ps<N>& s, const Pk<N>& m, const Ps<N>& a, const Ps<N>& b),
            _mm512_mask_mul_ps(s.v[j], m.v[j], a.v[j], b.v[j]))

#undef EF_LANEWISE

// TanhLanesAvx2 on N x 16 lanes: the same float operations in the same
// order, with comparisons into k-masks and masked moves in place of blends.
template <int N>
EF_AVX512_INLINE Ps<N> TanhLanesAvx512(const Ps<N>& x) {
  const Ps<N> one = Set1<N>(1.0f);
  const Ps<N> two = Set1<N>(2.0f);
  const Ps<N> half = Set1<N>(0.5f);
  const Ps<N> neg_zero = Set1<N>(-0.0f);
  const Pi<N> ix = And(CastI(x), Set1<N>(0x7fffffff));
  const Ps<N> ax = CastF(ix);
  const Ps<N> sign = And(x, neg_zero);
  // tanhf: |x| >= 1 takes expm1f(2|x|), |x| < 1 takes expm1f(-2|x|).
  const Pk<N> big = CmpGt(ix, Set1<N>(0x3f7fffff));
  const Ps<N> a2 = Add(ax, ax);  // |arg|, exact.
  const Ps<N> neg_sign = MaskzMov(KNot(big), neg_zero);
  const Ps<N> arg = Or(a2, neg_sign);

  // expm1f argument reduction: arg = k*ln2 + xr - c.
  const Pi<N> hx = CastI(a2);
  const Pk<N> reduce = CmpGt(hx, Set1<N>(0x3eb17218));
  const Pk<N> k_minus_one = CmpGt(Set1<N>(0x3f851592), hx);
  const Ps<N> ln2_hi = Set1<N>(6.9313812256e-01f);
  const Ps<N> ln2_lo = Set1<N>(9.0580006145e-06f);
  const Ps<N> kf =
      Add(Mul(Set1<N>(1.4426950216e+00f), arg), Or(half, neg_sign));
  Pi<N> k = CvttPs(kf);
  const Ps<N> tk = CvtEpi32(k);
  Ps<N> hi = Sub(arg, Mul(tk, ln2_hi));
  Ps<N> lo = Mul(tk, ln2_lo);
  // 0.5 ln2 < |arg| < 1.5 ln2 (negative arg only): k = -1 exactly.
  hi = MaskAdd(hi, k_minus_one, arg, ln2_hi);
  lo = MaskMov(lo, k_minus_one, Xor(ln2_lo, neg_zero));
  k = MaskMov(k, k_minus_one, Set1<N>(-1));
  const Ps<N> xred = Sub(hi, lo);
  const Ps<N> c = Sub(Sub(hi, xred), lo);
  const Ps<N> xr = MaskMov(arg, reduce, xred);
  k = MaskzMov(reduce, k);  // k = 0 if not.

  // Primary range.
  const Ps<N> hfx = Mul(xr, half);
  const Ps<N> hxs = Mul(xr, hfx);
  Ps<N> r1 = Mul(Set1<N>(-2.0109921195e-07f), hxs);
  r1 = Mul(Add(Set1<N>(4.0082177293e-06f), r1), hxs);
  r1 = Mul(Add(Set1<N>(-7.9365076090e-05f), r1), hxs);
  r1 = Mul(Add(Set1<N>(1.5873016091e-03f), r1), hxs);
  r1 = Mul(Add(Set1<N>(-3.3333335072e-02f), r1), hxs);
  r1 = Add(one, r1);
  const Ps<N> t = Sub(Set1<N>(3.0f), Mul(r1, hfx));
  const Ps<N> e = Mul(hxs, Div(Sub(r1, t), Sub(Set1<N>(6.0f), Mul(xr, t))));
  // k = 0: |arg| < 2^-25 returns arg itself, otherwise xr - (xr*e - hxs).
  const Pk<N> tiny_arg = CmpGt(Set1<N>(0x33000000), hx);
  const Ps<N> res_k0 = MaskMov(Sub(xr, Sub(Mul(xr, e), hxs)), tiny_arg, arg);
  // k != 0.
  const Ps<N> e2 = Sub(Sub(Mul(xr, Sub(e, c)), c), hxs);
  const Ps<N> res_km1 = Sub(Mul(half, Sub(xr, e2)), half);
  // k <= -2 or k > 56: y = 1 - (e2 - xr), scaled by 2^k, minus 1.
  // 2 <= k <= 22: y = (1 - 2^-k) - (e2 - xr), scaled by 2^k.
  // 23 <= k <= 56: y = (xr - (e2 + 2^-k)) + 1, scaled by 2^k.
  // The scaling adds k to the exponent field as an integer.
  const Pk<N> path_a = KOr(CmpGt(Set1<N>(-1), k), CmpGt(k, Set1<N>(56)));
  const Pk<N> path_c = KAndN(path_a, CmpGt(k, Set1<N>(22)));
  const Ps<N> one_minus_pow = CastF(
      Sub(Set1<N>(0x3f800000), Srlv(Set1<N>(0x1000000), k)));
  const Ps<N> base = MaskMov(one_minus_pow, path_a, one);
  const Ps<N> y_ab = Sub(base, Sub(e2, xr));
  const Ps<N> pow_minus_k = CastF(Shl23(Sub(Set1<N>(0x7f), k)));
  const Ps<N> y_c = Add(Sub(xr, Add(e2, pow_minus_k)), one);
  Ps<N> y = MaskMov(y_ab, path_c, y_c);
  y = CastF(Add(CastI(y), Shl23(k)));
  y = MaskSub(y, path_a, y, one);
  Ps<N> em = MaskMov(y, CmpEq(k, Set1<N>(-1)), res_km1);
  em = MaskMov(em, CmpEq(k, Set1<N>(0)), res_k0);

  // tanhf: |x| >= 1 gives 1 - 2/(em + 2), |x| < 1 gives -em/(em + 2); one
  // division serves both.
  const Ps<N> num = MaskMov(Xor(em, neg_zero), big, two);
  const Ps<N> q = Div(num, Add(em, two));
  Ps<N> z = MaskSub(q, big, one, q);
  // |x| >= 22 and +-Inf: +-1 (fdlibm's 1 - tiny and 1/x +- 1 round to it).
  z = MaskMov(z, CmpGt(ix, Set1<N>(0x41afffff)), one);
  Ps<N> r = Xor(z, sign);
  // |x| < 2^-55, zeros included: x * (1 + x).
  r = MaskMul(r, CmpGt(Set1<N>(0x24000000), ix), x, Add(one, x));
  // NaN: 1/x +- 1 returns x quieted, which is x + x.
  return MaskAdd(r, CmpGt(ix, Set1<N>(0x7f800000)), x, x);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// y[i] = tanh(x[i]) for all i, in place too: 64 values a step (four
// vectors, all loaded before any is stored), then 16, then the n % 16 tail
// in one masked load and store whose masked-off lanes are never read or
// written.
EF_AVX512 void TanhAvx512(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    Ps<4> v;
    for (int j = 0; j < 4; ++j) v.v[j] = _mm512_loadu_ps(x + i + 16 * j);
    v = TanhLanesAvx512(v);
    for (int j = 0; j < 4; ++j) _mm512_storeu_ps(y + i + 16 * j, v.v[j]);
  }
  Ps<1> v;
  for (; i + 16 <= n; i += 16) {
    v.v[0] = _mm512_loadu_ps(x + i);
    _mm512_storeu_ps(y + i, TanhLanesAvx512(v).v[0]);
  }
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1);
    v.v[0] = _mm512_maskz_loadu_ps(m, x + i);
    _mm512_mask_storeu_ps(y + i, m, TanhLanesAvx512(v).v[0]);
  }
}

// Same contract as PackConvPanelPortable, 16 lanes per tap: one masked
// load when the block's taps are consecutive floats, one masked gather
// otherwise; masked-off lanes are +0 and are never read. The lane masks
// come from the block's tap coordinates, two compares per tap, so this
// path needs no FillConvMasks.
EF_AVX512 void PackConvPanelAvx512(const ConvGeometry& g, const ConvBlock& b,
                                   float* panel) {
  const int64_t hw = g.h * g.w;
  const int64_t taps = g.k * g.k;
  const __m512i iy0 = _mm512_loadu_si512(b.iy0);
  const __m512i ix0 = _mm512_loadu_si512(b.ix0);
  const __m512i h = _mm512_set1_epi32(static_cast<int32_t>(g.h));
  const __m512i w = _mm512_set1_epi32(static_cast<int32_t>(g.w));
  const __m512i idx = _mm512_loadu_si512(b.in_off);
  for (int ky = 0; ky < g.k; ++ky) {
    // Unsigned compares test 0 <= v < bound in one go.
    const __mmask16 row = _mm512_cmplt_epu32_mask(
        _mm512_add_epi32(iy0, _mm512_set1_epi32(ky)), h);
    for (int kx = 0; kx < g.k; ++kx) {
      const __mmask16 m = _kand_mask16(
          row, _mm512_cmplt_epu32_mask(
                   _mm512_add_epi32(ix0, _mm512_set1_epi32(kx)), w));
      const float* src = b.in_base + ky * g.w + kx;
      float* dst = panel + (ky * g.k + kx) * kConvBlock;
      if (b.in_run16) {
        src += b.in_off[0];
        for (int64_t ch = 0; ch < g.c; ++ch) {
          _mm512_storeu_ps(dst + ch * taps * kConvBlock,
                           _mm512_maskz_loadu_ps(m, src + ch * hw));
        }
      } else {
        for (int64_t ch = 0; ch < g.c; ++ch) {
          _mm512_storeu_ps(dst + ch * taps * kConvBlock,
                           _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m, idx,
                                                    src + ch * hw, 4));
        }
      }
    }
  }
}

// Stores the block's columns of output channel `oc`, with one float add of
// the bias when there is one.
EF_AVX512 inline void StoreConvLanesAvx512(__m512 v, const float* bias,
                                           int64_t oc, const ConvBlock& b,
                                           float* out, int64_t ohow) {
  if (bias != nullptr) v = _mm512_add_ps(v, _mm512_set1_ps(bias[oc]));
  float* dst = out + oc * ohow;
  if (b.out_run16) {
    const __mmask16 m = static_cast<__mmask16>((1u << b.valid) - 1);
    _mm512_mask_storeu_ps(dst + b.out_off[0], m, v);
    return;
  }
  alignas(64) float lanes[kConvBlock];
  _mm512_store_ps(lanes, v);
  for (int t = 0; t < b.valid; ++t) dst[b.out_off[t]] = lanes[t];
}

// Output rows [i, i + kRows) of one block: per panel row, one 16-lane load
// feeds kRows fmas, each output's chain over l from +0 as in
// ConvComputePortable.
template <int kRows>
EF_AVX512 inline void ConvRowsAvx512(const float* __restrict a,
                                     const float* bias,
                                     const float* __restrict panel, int64_t i,
                                     int64_t kk, const ConvBlock& b,
                                     float* out, int64_t ohow) {
  const float* ai = a + i * kk;
  __m512 acc[kRows];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) acc[r] = _mm512_setzero_ps();
  for (int64_t l = 0; l < kk; ++l) {
    const __m512 br = _mm512_loadu_ps(panel + l * kConvBlock);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(ai[r * kk + l]), br, acc[r]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    StoreConvLanesAvx512(acc[r], bias, i + r, b, out, ohow);
  }
}

// Same contract as ConvComputePortable, on an 8-row x 16-column tile.
EF_AVX512 void ConvComputeAvx512(const float* __restrict a, const float* bias,
                                 const float* __restrict panel, int64_t m,
                                 int64_t kk, const ConvBlock& b, float* out,
                                 int64_t ohow) {
  int64_t i = 0;
  for (; i + 8 <= m; i += 8) {
    ConvRowsAvx512<8>(a, bias, panel, i, kk, b, out, ohow);
  }
  if (i + 4 <= m) {
    ConvRowsAvx512<4>(a, bias, panel, i, kk, b, out, ohow);
    i += 4;
  }
  for (; i < m; ++i) ConvRowsAvx512<1>(a, bias, panel, i, kk, b, out, ohow);
}

// GemmNTRowsAvx512 reads B packed as a k x n16 panel, n16 = n rounded up
// to 16 with zero columns, so one 16-lane load holds one l of 16 outputs.
// It rereads the panel once per three A rows, so it runs only while the
// panel stays in L1, and the packing (k * n16 moves) repays itself only
// over enough rows; below m = k GemmNTRowsAvx2 is faster on the shapes
// measured (docs/PERFORMANCE.md, "Kernel paths").
constexpr int64_t kNTPanelMaxFloats = 8192;  // 32 KiB.

int64_t RoundUp16(int64_t n) { return (n + 15) / 16 * 16; }

// panel[l * n16 + j] = b[j * k + l]; columns n..n16-1 are +0.
void PackGemmNTPanel(const float* b, int64_t n, int64_t k, float* panel) {
  const int64_t n16 = RoundUp16(n);
  for (int64_t l = 0; l < k; ++l) {
    float* row = panel + l * n16;
    for (int64_t j = 0; j < n; ++j) row[j] = b[j * k + l];
    for (int64_t j = n; j < n16; ++j) row[j] = 0.0f;
  }
}

// C rows [i, i + kRows), columns [j, j + 16) clipped to n. Same contract
// as Dot8Portable with lanes over output columns: the 8 lane-chains of
// each output are 8 accumulators, HSum8 becomes vertical adds, and the
// remaining l take one fma each. The bias, when there is one, is one
// masked load added before the masked store (WithBias in 16 lanes).
template <int kRows>
EF_AVX512 inline void GemmNTTileAvx512(const float* __restrict a,
                                       const float* __restrict panel,
                                       const float* bias,
                                       float* __restrict c, int64_t i,
                                       int64_t j, int64_t n, int64_t k) {
  const int64_t n16 = RoundUp16(n);
  const float* bp = panel + j;
  __m512 s[kRows][8];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (int t = 0; t < 8; ++t) s[r][t] = _mm512_setzero_ps();
  }
  int64_t l = 0;
  for (; l + 8 <= k; l += 8) {
#pragma GCC unroll 8
    for (int t = 0; t < 8; ++t) {
      __m512 bv = _mm512_loadu_ps(bp + (l + t) * n16);
      // Held in a register, so each fma takes its A element as an embedded
      // broadcast instead of reloading B.
      __asm__("" : "+v"(bv));
#pragma GCC unroll 8
      for (int r = 0; r < kRows; ++r) {
        s[r][t] = _mm512_fmadd_ps(_mm512_set1_ps(a[(i + r) * k + l + t]), bv,
                                  s[r][t]);
      }
    }
  }
  const __mmask16 m =
      static_cast<__mmask16>((1u << std::min<int64_t>(16, n - j)) - 1);
  const __m512 bv =
      bias != nullptr ? _mm512_maskz_loadu_ps(m, bias + j) : __m512{};
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    __m512 v = _mm512_add_ps(
        _mm512_add_ps(_mm512_add_ps(s[r][0], s[r][4]),
                      _mm512_add_ps(s[r][2], s[r][6])),
        _mm512_add_ps(_mm512_add_ps(s[r][1], s[r][5]),
                      _mm512_add_ps(s[r][3], s[r][7])));
    for (int64_t q = l; q < k; ++q) {
      v = _mm512_fmadd_ps(_mm512_set1_ps(a[(i + r) * k + q]),
                          _mm512_loadu_ps(bp + q * n16), v);
    }
    if (bias != nullptr) v = _mm512_add_ps(v, bv);
    _mm512_mask_storeu_ps(c + (i + r) * n + j, m, v);
  }
}

// Same contract as GemmNTRowsPortable, from the packed panel: 3-row tiles
// (24 accumulators), then one row at a time.
EF_AVX512 void GemmNTRowsAvx512(const float* __restrict a,
                                const float* __restrict panel,
                                const float* bias, float* __restrict c,
                                int64_t r0, int64_t r1, int64_t n,
                                int64_t k) {
  int64_t i = r0;
  for (; i + 3 <= r1; i += 3) {
    for (int64_t j = 0; j < n; j += 16) {
      GemmNTTileAvx512<3>(a, panel, bias, c, i, j, n, k);
    }
  }
  for (; i < r1; ++i) {
    for (int64_t j = 0; j < n; j += 16) {
      GemmNTTileAvx512<1>(a, panel, bias, c, i, j, n, k);
    }
  }
}

#endif  // EF_KERNELS_X86

// The widest path this CPU supports; AVX-512 needs the F, DQ, BW and VL
// subsets (the OS must also save zmm state, which the check includes).
KernelPath HostKernelPath() {
  static const KernelPath path = [] {
#if defined(EF_KERNELS_X86)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      if (__builtin_cpu_supports("avx512f") &&
          __builtin_cpu_supports("avx512dq") &&
          __builtin_cpu_supports("avx512bw") &&
          __builtin_cpu_supports("avx512vl")) {
        return KernelPath::kAvx512;
      }
      return KernelPath::kAvx2;
    }
#endif
    return KernelPath::kPortable;
  }();
  return path;
}

std::atomic<KernelPath>& PathSlot() {
  static std::atomic<KernelPath> slot{HostKernelPath()};
  return slot;
}

// Dispatches one row chunk of the axpy-oriented kernels (Gemm / GemmTN).
void GemmAccRows(const float* a, int64_t as_i, int64_t as_l, const float* b,
                 float* c, int64_t r0, int64_t r1, int64_t n, int64_t k) {
  // Each chunk zeroes its own C rows for locality, then accumulates.
  std::memset(c + r0 * n, 0,
              static_cast<size_t>((r1 - r0) * n) * sizeof(float));
#if defined(EF_KERNELS_X86)
  if (ActiveKernelPath() != KernelPath::kPortable) {
    GemmAccRowsAvx2(a, as_i, as_l, b, c, r0, r1, n, k);
    return;
  }
#endif
  GemmAccRowsPortable(a, as_i, as_l, b, c, r0, r1, n, k);
}

// Runs column blocks [blk0, blk1) of Conv2dKernel. The panel and masks are
// thread-local and grow-only, so the steady state allocates nothing.
void ConvBlocks(const float* weight, const float* bias, const float* in,
                float* out, const ConvGeometry& g, int64_t blk0,
                int64_t blk1) {
  static thread_local std::vector<float> panel_buf;
  static thread_local std::vector<int32_t> mask_buf;
  const int64_t kk = g.c * g.k * g.k;
  const int64_t ohow = g.oh() * g.ow();
  const int64_t cols = g.n * ohow;
  const size_t panel_n = static_cast<size_t>(kk * kConvBlock);
  const size_t mask_n =
      static_cast<size_t>((g.k * g.k + 2 * g.k) * kConvBlock);
  if (panel_buf.size() < panel_n) panel_buf.resize(panel_n);
  if (mask_buf.size() < mask_n) mask_buf.resize(mask_n);
  float* panel = panel_buf.data();
  int32_t* masks = mask_buf.data();
  [[maybe_unused]] const KernelPath path = ActiveKernelPath();
  ConvBlock b;
  for (int64_t blk = blk0; blk < blk1; ++blk) {
    FillConvBlock(g, in, blk * kConvBlock, cols, &b);
#if defined(EF_KERNELS_X86)
    if (path == KernelPath::kAvx512) {
      PackConvPanelAvx512(g, b, panel);
      ConvComputeAvx512(weight, bias, panel, g.out_ch, kk, b, out, ohow);
      continue;
    }
#endif
    FillConvMasks(g, b, masks);
#if defined(EF_KERNELS_X86)
    if (path == KernelPath::kAvx2) {
      if (b.valid > 8) {
        PackConvPanelAvx2(g, b, masks, 2, panel);
        ConvComputeAvx2<2>(weight, bias, panel, g.out_ch, kk, b, out, ohow);
      } else {
        PackConvPanelAvx2(g, b, masks, 1, panel);
        ConvComputeAvx2<1>(weight, bias, panel, g.out_ch, kk, b, out, ohow);
      }
      continue;
    }
#endif
    PackConvPanelPortable(g, b, masks, panel);
    ConvComputePortable(weight, bias, panel, g.out_ch, kk, b, out, ohow);
  }
}

// Dispatches one row chunk of the dot-oriented GemmNT kernel.
void GemmNTRows(const float* a, const float* b, const float* bias, float* c,
                int64_t r0, int64_t r1, int64_t n, int64_t k) {
#if defined(EF_KERNELS_X86)
  if (ActiveKernelPath() != KernelPath::kPortable) {
    GemmNTRowsAvx2(a, b, bias, c, r0, r1, n, k);
    return;
  }
#endif
  GemmNTRowsPortable(a, b, bias, c, r0, r1, n, k);
}

}  // namespace

const char* KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kPortable:
      return "portable";
    case KernelPath::kAvx2:
      return "avx2";
    case KernelPath::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::vector<KernelPath> SupportedKernelPaths() {
  std::vector<KernelPath> paths;
  for (const KernelPath p :
       {KernelPath::kPortable, KernelPath::kAvx2, KernelPath::kAvx512}) {
    if (p <= HostKernelPath()) paths.push_back(p);
  }
  return paths;
}

KernelPath ActiveKernelPath() {
  return PathSlot().load(std::memory_order_relaxed);
}

void SetKernelPathForTest(KernelPath path) {
  EF_CHECK(path <= HostKernelPath());
  PathSlot().store(path, std::memory_order_relaxed);
}

void SetKernelThreads(int n) {
  std::lock_guard<std::mutex> lock(pool_mu);
  const int want = n > 0 ? n : DefaultThreads();
  if (want == configured_threads) return;
  configured_threads = want;
  pool.reset();  // Recreated lazily at the new size.
}

int KernelThreads() {
  std::lock_guard<std::mutex> lock(pool_mu);
  if (configured_threads < 0) configured_threads = DefaultThreads();
  return configured_threads;
}

void SetKernelParallelFlopThreshold(int64_t flops) {
  parallel_flops.store(std::max<int64_t>(0, flops),
                       std::memory_order_relaxed);
}

std::string KernelDescription() {
  const int threads = KernelThreads();
  return util::StrFormat("%s kernel path, %d thread%s",
                         KernelPathName(ActiveKernelPath()), threads,
                         threads == 1 ? "" : "s");
}

// The serial fast path skips ParallelRows entirely: constructing the
// std::function chunk body heap-allocates (the captures outstrip the
// small-buffer optimization), and the conv/pool layers rely on small
// steady-state kernel calls being allocation-free.
void GemmKernel(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k) {
  const int64_t flops = 2 * m * n * k;
  if (!WillParallelize(flops)) {
    GemmAccRows(a, /*as_i=*/k, /*as_l=*/1, b, c, 0, m, n, k);
    return;
  }
  ParallelRows(m, flops, [=](int64_t r0, int64_t r1) {
    GemmAccRows(a, /*as_i=*/k, /*as_l=*/1, b, c, r0, r1, n, k);
  });
}

void GemmTNKernel(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k) {
  const int64_t flops = 2 * m * n * k;
  if (!WillParallelize(flops)) {
    GemmAccRows(a, /*as_i=*/1, /*as_l=*/m, b, c, 0, m, n, k);
    return;
  }
  ParallelRows(m, flops, [=](int64_t r0, int64_t r1) {
    GemmAccRows(a, /*as_i=*/1, /*as_l=*/m, b, c, r0, r1, n, k);
  });
}

void GemmNTKernel(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, const float* bias) {
  const int64_t flops = 2 * m * n * k;
#if defined(EF_KERNELS_X86)
  if (ActiveKernelPath() == KernelPath::kAvx512 && m >= k &&
      k * RoundUp16(n) <= kNTPanelMaxFloats) {
    // Packed once on the caller's thread; the chunks only read it, and the
    // caller waits for them, so the thread-local buffer outlives them.
    static thread_local std::vector<float> panel_buf;
    const size_t panel_n = static_cast<size_t>(k * RoundUp16(n));
    if (panel_buf.size() < panel_n) panel_buf.resize(panel_n);
    const float* panel = panel_buf.data();
    PackGemmNTPanel(b, n, k, panel_buf.data());
    if (!WillParallelize(flops)) {
      GemmNTRowsAvx512(a, panel, bias, c, 0, m, n, k);
      return;
    }
    ParallelRows(m, flops, [=](int64_t r0, int64_t r1) {
      GemmNTRowsAvx512(a, panel, bias, c, r0, r1, n, k);
    });
    return;
  }
#endif
  if (!WillParallelize(flops)) {
    GemmNTRows(a, b, bias, c, 0, m, n, k);
    return;
  }
  ParallelRows(m, flops, [=](int64_t r0, int64_t r1) {
    GemmNTRows(a, b, bias, c, r0, r1, n, k);
  });
}

void Conv2dKernel(const float* weight, const float* bias, const float* in,
                  float* out, const ConvGeometry& g) {
  // Gather indices are 32-bit offsets within the images a block spans.
  EF_CHECK(kConvBlock * g.c * g.h * g.w <= INT32_MAX);
  const int64_t cols = g.n * g.oh() * g.ow();
  const int64_t blocks = (cols + kConvBlock - 1) / kConvBlock;
  const int64_t flops = 2 * g.out_ch * cols * g.c * g.k * g.k;
  if (!WillParallelize(flops)) {
    ConvBlocks(weight, bias, in, out, g, 0, blocks);
    return;
  }
  ParallelRows(blocks, flops, [=](int64_t b0, int64_t b1) {
    ConvBlocks(weight, bias, in, out, g, b0, b1);
  });
}

bool KernelWillParallelize(int64_t flops) { return WillParallelize(flops); }

void ParallelChunksKernel(int64_t n, int64_t flops,
                          const std::function<void(int64_t, int64_t)>& body) {
  ParallelRows(n, flops, body);
}

void TanhKernel(const float* x, float* y, int64_t n) {
  int64_t i = 0;
#if defined(EF_KERNELS_X86)
  switch (ActiveKernelPath()) {
    case KernelPath::kAvx512:
      TanhAvx512(x, y, n);
      return;
    case KernelPath::kAvx2:
      TanhAvx2(x, y, n);
      i = n - n % 8;
      break;
    case KernelPath::kPortable:
      break;
  }
#endif
  for (; i < n; ++i) y[i] = std::tanh(x[i]);
}

void GemvKernel(const float* w, const float* x, float* y, int64_t m,
                int64_t n) {
#if defined(EF_KERNELS_X86)
  if (ActiveKernelPath() != KernelPath::kPortable) {
    GemvRowsAvx2(w, x, y, 0, m, n);
    return;
  }
#endif
  for (int64_t i = 0; i < m; ++i) y[i] = DotPortable(w + i * n, x, n);
}

void GemvTKernel(const float* w, const float* x, float* y, int64_t m,
                 int64_t n) {
#if defined(EF_KERNELS_X86)
  if (ActiveKernelPath() != KernelPath::kPortable) {
    GemvTAvx2(w, x, y, m, n);
    return;
  }
#endif
  std::memset(y, 0, static_cast<size_t>(n) * sizeof(float));
  for (int64_t i = 0; i < m; ++i) {
    const float xv = x[i];
    const float* __restrict row = w + i * n;
    for (int64_t j = 0; j < n; ++j) y[j] = std::fma(xv, row[j], y[j]);
  }
}

}  // namespace tensor
}  // namespace errorflow
