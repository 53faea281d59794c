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

// Each x86 path is compiled inside a target region: GCC's target pragma,
// or on clang a target attribute pushed onto every function in the region.
#if defined(__x86_64__) && defined(__GNUC__)
#define EF_KERNELS_X86 1
#include <immintrin.h>
#if defined(__clang__)
#define EF_TARGET_PUSH(isa) \
  _Pragma(EF_STR(clang attribute push(__attribute__((target(isa))), \
                                      apply_to = function)))
#define EF_TARGET_POP _Pragma("clang attribute pop")
#else
#define EF_TARGET_PUSH(isa) \
  _Pragma("GCC push_options") _Pragma(EF_STR(GCC target(isa)))
#define EF_TARGET_POP _Pragma("GCC pop_options")
#endif
#define EF_STR(x) #x
#endif

namespace errorflow {
namespace tensor {

namespace {

// k-dimension cache block: a 256-row B panel stays resident in L1 while a
// register tile sweeps the row chunk.
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

// Runs body(r0, r1) over the rows [0, m): one direct call when serial, so
// the serial path builds no std::function (its captures outstrip the
// small-buffer optimization, and the conv and pool layers rely on small
// steady-state kernel calls being allocation-free), else across the pool.
template <typename Body>
void ForRows(int64_t m, int64_t flops, const Body& body) {
  if (WillParallelize(flops)) {
    ParallelRows(m, flops, body);
  } else {
    body(0, m);
  }
}

// The value GemmNT stores for output column j: the dot product, plus
// bias[j] in one float add when there is a bias. A null bias adds nothing.
inline float WithBias(float dot, const float* bias, int64_t j) {
  return bias != nullptr ? dot + bias[j] : dot;
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
  // Per vector v of the path's lanes: the valid columns among them read
  // consecutive floats at every tap (a stride-1 output row segment), and
  // write consecutive outputs.
  bool in_run[kConvBlock];
  bool out_run[kConvBlock];
};

// Fills `b` for the block starting at column j0 of `cols`, with run flags
// for vectors of `lanes` columns.
void FillConvBlock(const ConvGeometry& g, const float* in, int64_t j0,
                   int64_t cols, int lanes, ConvBlock* b) {
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
  for (int v = 0; v * lanes < kConvBlock; ++v) {
    const int t0 = v * lanes, t1 = std::min(b->valid, t0 + lanes);
    bool in_run = true, out_run = true;
    for (int t = t0 + 1; t < t1; ++t) {
      in_run = in_run && b->in_off[t] == b->in_off[t0] + (t - t0);
      out_run = out_run && b->out_off[t] == b->out_off[t0] + (t - t0);
    }
    b->in_run[v] = in_run;
    b->out_run[v] = out_run;
  }
}

// The calling thread's conv panel of at least n floats, grow-only, so the
// steady state allocates nothing.
float* ConvPanel(size_t n) {
  static thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// One kernel path's bodies (kernel_body.inc).
struct Kernels {
  void (*gemm_acc_rows)(const float* a, int64_t as_i, int64_t as_l,
                        const float* b, float* c, int64_t r0, int64_t r1,
                        int64_t n, int64_t k);
  void (*gemm_nt_rows)(const float* a, const float* b, const float* bias,
                       float* c, int64_t r0, int64_t r1, int64_t n,
                       int64_t k);
  void (*gemv)(const float* w, const float* x, float* y, int64_t m,
               int64_t n);
  void (*conv_blocks)(const float* weight, const float* bias, const float* in,
                      float* out, const ConvGeometry& g, int64_t blk0,
                      int64_t blk1);
  void (*tanh)(const float* x, float* y, int64_t n);
};

#define EF_INLINE inline __attribute__((always_inline))
#define EF_LANE [[gnu::always_inline]] static
#define EF_UNROLL _Pragma("GCC unroll 16")

// ---------------------------------------------------------------------------
// Portable path: one float lane, and every multiply-add a std::fma. This
// file is compiled with -ffp-contract=off: the compiler fuses nothing on
// its own, and every fma is written out.
// ---------------------------------------------------------------------------

namespace portable {

struct V {
  using F = float;
  using I = int32_t;
  using M = bool;
  static constexpr int kLanes = 1;
  // Every fma is a libm call, across which each accumulator spills, so a
  // taller row tile would reuse nothing.
  static constexpr int kGemmRows = 1;
  static constexpr int kConvRows = 1;
  EF_LANE F Zero() { return 0.0f; }
  EF_LANE F Set1(float x) { return x; }
  EF_LANE I Set1(int32_t x) { return x; }
  EF_LANE F Load(const float* p) { return *p; }
  EF_LANE I LoadI(const int32_t* p) { return *p; }
  EF_LANE void Store(float* p, F v) { *p = v; }
  EF_LANE M FirstN(int64_t n) { return n > 0; }
  EF_LANE F MaskLoad(M m, const float* p) { return m ? *p : 0.0f; }
  EF_LANE void MaskStore(float* p, M m, F v) {
    if (m) *p = v;
  }
  EF_LANE F Gather(M m, I idx, const float* base) {
    return m ? base[idx] : 0.0f;
  }
  EF_LANE F Add(F a, F b) { return a + b; }
  EF_LANE I Add(I a, I b) { return a + b; }
  EF_LANE F Fma(F a, F b, F c) { return std::fma(a, b, c); }
  // Unsigned compares test 0 <= a < b in one go.
  EF_LANE M LtU(I a, I b) {
    return static_cast<uint32_t>(a) < static_cast<uint32_t>(b);
  }
  EF_LANE M KAnd(M a, M b) { return a && b; }
};

// Eight lanes, as the dot contracts need them.
struct V8 {
  struct F {
    float v[8];
  };
  EF_LANE F Zero() { return F{}; }
  EF_LANE F Load(const float* p) {
    F r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  EF_LANE F Add(F a, F b) {
    for (int t = 0; t < 8; ++t) a.v[t] += b.v[t];
    return a;
  }
  EF_LANE F Fma(F a, F b, F c) {
    for (int t = 0; t < 8; ++t) c.v[t] = std::fma(a.v[t], b.v[t], c.v[t]);
    return c;
  }
  EF_LANE float HSum(F s) {
    const float* v = s.v;
    return ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
  }
};

// The portable path's tanh is the host's std::tanh (ROADMAP item 14(a)).
void Tanh(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

#include "tensor/kernel_body.inc"

}  // namespace portable

#if defined(EF_KERNELS_X86)
#define EF_KERNEL_BODY_TANH 1

// ---------------------------------------------------------------------------
// AVX2 + FMA path: 8 lanes, lane masks as all-ones int32 lanes, blends in
// place of masked moves.
// ---------------------------------------------------------------------------

EF_TARGET_PUSH("avx2,fma")

namespace avx2 {

struct V {
  using F = __m256;
  using I = __m256i;
  using M = __m256i;  // -1 in a selected lane, 0 elsewhere.
  static constexpr int kLanes = 8;
  static constexpr int kGemmRows = 4;
  static constexpr int kConvRows = 4;
  static constexpr int kTanhVecs = 1;
  EF_LANE F Zero() { return _mm256_setzero_ps(); }
  EF_LANE F Set1(float x) { return _mm256_set1_ps(x); }
  EF_LANE I Set1(int32_t x) { return _mm256_set1_epi32(x); }
  EF_LANE F Load(const float* p) { return _mm256_loadu_ps(p); }
  EF_LANE I LoadI(const int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  EF_LANE void Store(float* p, F v) { _mm256_storeu_ps(p, v); }
  EF_LANE M FirstN(int64_t n) {
    return _mm256_cmpgt_epi32(Set1(static_cast<int32_t>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  EF_LANE F MaskLoad(M m, const float* p) { return _mm256_maskload_ps(p, m); }
  EF_LANE void MaskStore(float* p, M m, F v) { _mm256_maskstore_ps(p, m, v); }
  EF_LANE F Gather(M m, I idx, const float* base) {
    return _mm256_mask_i32gather_ps(Zero(), base, idx, CastF(m), 4);
  }
  EF_LANE F Fma(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  EF_LANE float HSum(F v) {
    __m128 lo = _mm256_castps256_ps128(v);
    lo = _mm_add_ps(lo, _mm256_extractf128_ps(v, 1));
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
    return _mm_cvtss_f32(lo);
  }
  EF_LANE F Add(F a, F b) { return _mm256_add_ps(a, b); }
  EF_LANE I Add(I a, I b) { return _mm256_add_epi32(a, b); }
  EF_LANE F Sub(F a, F b) { return _mm256_sub_ps(a, b); }
  EF_LANE I Sub(I a, I b) { return _mm256_sub_epi32(a, b); }
  EF_LANE F Mul(F a, F b) { return _mm256_mul_ps(a, b); }
  EF_LANE F Div(F a, F b) { return _mm256_div_ps(a, b); }
  EF_LANE F And(F a, F b) { return _mm256_and_ps(a, b); }
  EF_LANE I And(I a, I b) { return _mm256_and_si256(a, b); }
  EF_LANE F Or(F a, F b) { return _mm256_or_ps(a, b); }
  EF_LANE F Xor(F a, F b) { return _mm256_xor_ps(a, b); }
  EF_LANE I CastI(F a) { return _mm256_castps_si256(a); }
  EF_LANE F CastF(I a) { return _mm256_castsi256_ps(a); }
  EF_LANE I CvttPs(F a) { return _mm256_cvttps_epi32(a); }
  EF_LANE F CvtEpi32(I a) { return _mm256_cvtepi32_ps(a); }
  EF_LANE I Shl23(I a) { return _mm256_slli_epi32(a, 23); }
  EF_LANE I Srlv(I a, I b) { return _mm256_srlv_epi32(a, b); }
  EF_LANE M CmpGt(I a, I b) { return _mm256_cmpgt_epi32(a, b); }
  EF_LANE M CmpEq(I a, I b) { return _mm256_cmpeq_epi32(a, b); }
  // a < b as unsigned: both sign bits flipped, then a signed compare.
  EF_LANE M LtU(I a, I b) {
    const I s = Set1(INT32_MIN);
    return CmpGt(_mm256_xor_si256(b, s), _mm256_xor_si256(a, s));
  }
  EF_LANE M KAnd(M a, M b) { return And(a, b); }
  EF_LANE M KOr(M a, M b) { return _mm256_or_si256(a, b); }
  EF_LANE M KNot(M a) { return _mm256_xor_si256(a, Set1(-1)); }
  EF_LANE M KAndN(M a, M b) { return _mm256_andnot_si256(a, b); }
  EF_LANE F MaskMov(F s, M m, F a) { return _mm256_blendv_ps(s, a, CastF(m)); }
  EF_LANE I MaskMov(I s, M m, I a) {
    return CastI(MaskMov(CastF(s), m, CastF(a)));
  }
  EF_LANE F MaskzMov(M m, F a) { return And(CastF(m), a); }
  EF_LANE I MaskzMov(M m, I a) { return And(m, a); }
  EF_LANE F MaskAdd(F s, M m, F a, F b) { return MaskMov(s, m, Add(a, b)); }
  EF_LANE F MaskSub(F s, M m, F a, F b) { return MaskMov(s, m, Sub(a, b)); }
  EF_LANE F MaskMul(F s, M m, F a, F b) { return MaskMov(s, m, Mul(a, b)); }
};

using V8 = V;

#include "tensor/kernel_body.inc"

}  // namespace avx2

EF_TARGET_POP

// ---------------------------------------------------------------------------
// AVX-512 path (F, DQ, BW, VL): 16 lanes and k-masks. The dot kernels run
// the AVX2 lane type's 8 lanes, compiled here.
// ---------------------------------------------------------------------------

EF_TARGET_PUSH("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma")
// GCC 12's avx512fintrin.h builds _mm512_undefined_* from a self-
// initialized variable, which -Wuninitialized reports in every caller of
// the intrinsics that use it, and -Wmaybe-uninitialized once such a caller
// is inlined into the four-vector tanh.
#pragma GCC diagnostic push
#if !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace avx512 {

struct V {
  using F = __m512;
  using I = __m512i;
  using M = __mmask16;
  static constexpr int kLanes = 16;
  static constexpr int kGemmRows = 4;
  static constexpr int kConvRows = 8;
  static constexpr int kTanhVecs = 4;
  EF_LANE F Zero() { return _mm512_setzero_ps(); }
  EF_LANE F Set1(float x) { return _mm512_set1_ps(x); }
  EF_LANE I Set1(int32_t x) { return _mm512_set1_epi32(x); }
  EF_LANE F Load(const float* p) { return _mm512_loadu_ps(p); }
  EF_LANE I LoadI(const int32_t* p) { return _mm512_loadu_si512(p); }
  EF_LANE void Store(float* p, F v) { _mm512_storeu_ps(p, v); }
  EF_LANE M FirstN(int64_t n) { return static_cast<M>((1u << n) - 1); }
  EF_LANE F MaskLoad(M m, const float* p) { return _mm512_maskz_loadu_ps(m, p); }
  EF_LANE void MaskStore(float* p, M m, F v) { _mm512_mask_storeu_ps(p, m, v); }
  EF_LANE F Gather(M m, I idx, const float* base) {
    return _mm512_mask_i32gather_ps(Zero(), m, idx, base, 4);
  }
  EF_LANE F Fma(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  EF_LANE F Add(F a, F b) { return _mm512_add_ps(a, b); }
  EF_LANE I Add(I a, I b) { return _mm512_add_epi32(a, b); }
  EF_LANE F Sub(F a, F b) { return _mm512_sub_ps(a, b); }
  EF_LANE I Sub(I a, I b) { return _mm512_sub_epi32(a, b); }
  EF_LANE F Mul(F a, F b) { return _mm512_mul_ps(a, b); }
  EF_LANE F Div(F a, F b) { return _mm512_div_ps(a, b); }
  EF_LANE F And(F a, F b) { return _mm512_and_ps(a, b); }
  EF_LANE I And(I a, I b) { return _mm512_and_si512(a, b); }
  EF_LANE F Or(F a, F b) { return _mm512_or_ps(a, b); }
  EF_LANE F Xor(F a, F b) { return _mm512_xor_ps(a, b); }
  EF_LANE I CastI(F a) { return _mm512_castps_si512(a); }
  EF_LANE F CastF(I a) { return _mm512_castsi512_ps(a); }
  EF_LANE I CvttPs(F a) { return _mm512_cvttps_epi32(a); }
  EF_LANE F CvtEpi32(I a) { return _mm512_cvtepi32_ps(a); }
  EF_LANE I Shl23(I a) { return _mm512_slli_epi32(a, 23); }
  EF_LANE I Srlv(I a, I b) { return _mm512_srlv_epi32(a, b); }
  EF_LANE M CmpGt(I a, I b) { return _mm512_cmpgt_epi32_mask(a, b); }
  EF_LANE M CmpEq(I a, I b) { return _mm512_cmpeq_epi32_mask(a, b); }
  EF_LANE M LtU(I a, I b) { return _mm512_cmplt_epu32_mask(a, b); }
  EF_LANE M KAnd(M a, M b) { return _kand_mask16(a, b); }
  EF_LANE M KOr(M a, M b) { return _kor_mask16(a, b); }
  EF_LANE M KNot(M a) { return _knot_mask16(a); }
  EF_LANE M KAndN(M a, M b) { return _kandn_mask16(a, b); }
  EF_LANE F MaskMov(F s, M m, F a) { return _mm512_mask_mov_ps(s, m, a); }
  EF_LANE I MaskMov(I s, M m, I a) { return _mm512_mask_mov_epi32(s, m, a); }
  EF_LANE F MaskzMov(M m, F a) { return _mm512_maskz_mov_ps(m, a); }
  EF_LANE I MaskzMov(M m, I a) { return _mm512_maskz_mov_epi32(m, a); }
  EF_LANE F MaskAdd(F s, M m, F a, F b) {
    return _mm512_mask_add_ps(s, m, a, b);
  }
  EF_LANE F MaskSub(F s, M m, F a, F b) {
    return _mm512_mask_sub_ps(s, m, a, b);
  }
  EF_LANE F MaskMul(F s, M m, F a, F b) {
    return _mm512_mask_mul_ps(s, m, a, b);
  }
};

using V8 = avx2::V;

#include "tensor/kernel_body.inc"

// GemmNT's packed-panel tile, a different algorithm from the dot tile:
// B is packed as a k x n16 panel, n16 = n rounded up to 16 with zero
// columns, so one 16-lane load holds one l of 16 outputs. It rereads the
// panel once per three A rows, so it runs only while the panel stays in
// L1, and the packing (k * n16 moves) repays itself only over enough rows;
// below m = k the dot tile is faster on the shapes measured
// (docs/PERFORMANCE.md, "Kernel paths").
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

// C rows [i, i + kRows), columns [j, j + 16) clipped to n. GemmNT's dot
// contract with lanes over output columns: the 8 lane-chains of each
// output are 8 accumulators, V8::HSum becomes vertical adds, and the
// remaining l take one fma each. The bias, when there is one, is one
// masked load added before the masked store (WithBias in 16 lanes).
template <int kRows>
EF_INLINE void GemmNTPanelTile(const float* __restrict a,
                               const float* __restrict panel,
                               const float* bias, float* __restrict c,
                               int64_t i, int64_t j, int64_t n, int64_t k) {
  const int64_t n16 = RoundUp16(n);
  const float* bp = panel + j;
  F s[kRows][8];
  EF_UNROLL for (int r = 0; r < kRows; ++r) {
    EF_UNROLL for (int t = 0; t < 8; ++t) s[r][t] = V::Zero();
  }
  int64_t l = 0;
  for (; l + 8 <= k; l += 8) {
    EF_UNROLL for (int t = 0; t < 8; ++t) {
      F bv = V::Load(bp + (l + t) * n16);
      // Held in a register, so each fma takes its A element as an embedded
      // broadcast instead of reloading B.
      __asm__("" : "+v"(bv));
      EF_UNROLL for (int r = 0; r < kRows; ++r) {
        s[r][t] = V::Fma(V::Set1(a[(i + r) * k + l + t]), bv, s[r][t]);
      }
    }
  }
  const M m = V::FirstN(std::min<int64_t>(16, n - j));
  const F bv = bias != nullptr ? V::MaskLoad(m, bias + j) : V::Zero();
  EF_UNROLL for (int r = 0; r < kRows; ++r) {
    F v = V::Add(V::Add(V::Add(s[r][0], s[r][4]), V::Add(s[r][2], s[r][6])),
                 V::Add(V::Add(s[r][1], s[r][5]), V::Add(s[r][3], s[r][7])));
    for (int64_t q = l; q < k; ++q) {
      v = V::Fma(V::Set1(a[(i + r) * k + q]), V::Load(bp + q * n16), v);
    }
    if (bias != nullptr) v = V::Add(v, bv);
    V::MaskStore(c + (i + r) * n + j, m, v);
  }
}

// C = A * B^T (+ bias) for rows [r0, r1) from the packed panel: 3-row tiles
// (24 accumulators), then one row at a time.
void GemmNTPanelRows(const float* a, const float* panel, const float* bias,
                     float* c, int64_t r0, int64_t r1, int64_t n, int64_t k) {
  int64_t i = r0;
  for (; i + 3 <= r1; i += 3) {
    for (int64_t j = 0; j < n; j += 16) {
      GemmNTPanelTile<3>(a, panel, bias, c, i, j, n, k);
    }
  }
  for (; i < r1; ++i) {
    for (int64_t j = 0; j < n; j += 16) {
      GemmNTPanelTile<1>(a, panel, bias, c, i, j, n, k);
    }
  }
}

}  // namespace avx512

#pragma GCC diagnostic pop
EF_TARGET_POP

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

// The bodies of the active path.
const Kernels& Active() {
#if defined(EF_KERNELS_X86)
  switch (ActiveKernelPath()) {
    case KernelPath::kAvx512:
      return avx512::kKernels;
    case KernelPath::kAvx2:
      return avx2::kKernels;
    case KernelPath::kPortable:
      break;
  }
#endif
  return portable::kKernels;
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

void GemmKernel(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k) {
  const auto rows = Active().gemm_acc_rows;
  ForRows(m, 2 * m * n * k, [=](int64_t r0, int64_t r1) {
    rows(a, /*as_i=*/k, /*as_l=*/1, b, c, r0, r1, n, k);
  });
}

void GemmTNKernel(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k) {
  const auto rows = Active().gemm_acc_rows;
  ForRows(m, 2 * m * n * k, [=](int64_t r0, int64_t r1) {
    rows(a, /*as_i=*/1, /*as_l=*/m, b, c, r0, r1, n, k);
  });
}

void GemmNTKernel(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, const float* bias) {
  const int64_t flops = 2 * m * n * k;
#if defined(EF_KERNELS_X86)
  if (ActiveKernelPath() == KernelPath::kAvx512 && m >= k &&
      k * avx512::RoundUp16(n) <= avx512::kNTPanelMaxFloats) {
    // Packed once on the caller's thread; the chunks only read it, and the
    // caller waits for them, so the thread-local buffer outlives them.
    static thread_local std::vector<float> panel_buf;
    const size_t panel_n = static_cast<size_t>(k * avx512::RoundUp16(n));
    if (panel_buf.size() < panel_n) panel_buf.resize(panel_n);
    const float* panel = panel_buf.data();
    avx512::PackGemmNTPanel(b, n, k, panel_buf.data());
    ForRows(m, flops, [=](int64_t r0, int64_t r1) {
      avx512::GemmNTPanelRows(a, panel, bias, c, r0, r1, n, k);
    });
    return;
  }
#endif
  const auto rows = Active().gemm_nt_rows;
  ForRows(m, flops, [=](int64_t r0, int64_t r1) {
    rows(a, b, bias, c, r0, r1, n, k);
  });
}

void Conv2dKernel(const float* weight, const float* bias, const float* in,
                  float* out, const ConvGeometry& g) {
  // Gather indices are 32-bit offsets within the images a block spans.
  EF_CHECK(kConvBlock * g.c * g.h * g.w <= INT32_MAX);
  const int64_t cols = g.n * g.oh() * g.ow();
  const int64_t blocks = (cols + kConvBlock - 1) / kConvBlock;
  const auto conv_blocks = Active().conv_blocks;
  ForRows(blocks, 2 * g.out_ch * cols * g.c * g.k * g.k,
          [=](int64_t b0, int64_t b1) {
            conv_blocks(weight, bias, in, out, g, b0, b1);
          });
}

bool KernelWillParallelize(int64_t flops) { return WillParallelize(flops); }

void ParallelChunksKernel(int64_t n, int64_t flops,
                          const std::function<void(int64_t, int64_t)>& body) {
  ParallelRows(n, flops, body);
}

void TanhKernel(const float* x, float* y, int64_t n) {
  Active().tanh(x, y, n);
}

void GemvKernel(const float* w, const float* x, float* y, int64_t m,
                int64_t n) {
  Active().gemv(w, x, y, m, n);
}

// y = x^T W: GemmAccRows with x as the one-row A, so each y[j] is the fma
// chain over i of x[i] * W[i][j] from +0, in i order.
void GemvTKernel(const float* w, const float* x, float* y, int64_t m,
                 int64_t n) {
  Active().gemm_acc_rows(x, /*as_i=*/m, /*as_l=*/1, w, y, 0, 1, n, m);
}

}  // namespace tensor
}  // namespace errorflow
