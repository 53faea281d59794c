#include "tensor/norms.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"

// The AVX-512 code below is compiled under GCC's target pragma, which
// clang does not take; clang builds run the scalar loops.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define EF_NORMS_X86 1
#include <immintrin.h>
#endif

namespace errorflow {
namespace tensor {

namespace {

// Largest per-row norm of a - b, or of a when `b` is null, element by
// element: the reference loop, which every path runs when a term is NaN.
double MaxRowScalar(const float* a, const float* b, int64_t rows,
                    int64_t row_len, Norm norm) {
  // std::max drops a NaN term, so `nan_probe` sums every term instead: the
  // terms are >= 0 unless NaN, so the sum is NaN exactly when one was.
  double worst = 0.0, nan_probe = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    const float* ar = a + r * row_len;
    const float* br = b == nullptr ? nullptr : b + r * row_len;
    const auto term = [&](int64_t i) {
      return br == nullptr ? static_cast<double>(ar[i])
                           : static_cast<double>(ar[i]) - br[i];
    };
    if (norm == Norm::kL2) {
      double acc = 0.0;
      for (int64_t i = 0; i < row_len; ++i) {
        const double d = term(i);
        acc += d * d;
      }
      worst = std::max(worst, std::sqrt(acc));
      nan_probe += acc;
    } else {
      for (int64_t i = 0; i < row_len; ++i) {
        const double d = std::fabs(term(i));
        worst = std::max(worst, d);
        nan_probe += d;
      }
    }
  }
  return std::isnan(nan_probe) ? nan_probe : worst;
}

#if defined(EF_NORMS_X86)
// Everything from here to the matching pop is compiled for AVX-512 and
// only runs on the avx512 kernel path. Each returns false when a term is
// NaN, leaving the result (a NaN with the scalar loop's bits) to it.
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl,avx2,fma")
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Eight terms i .. i + 7 (the `lanes` of them), as doubles.
template <bool kDiff>
inline __attribute__((always_inline)) __m512d Terms(const float* a,
                                                    const float* b, int64_t i,
                                                    __mmask8 lanes) {
  __m512d t = _mm512_cvtps_pd(_mm256_maskz_loadu_ps(lanes, a + i));
  if (kDiff) {
    t = _mm512_sub_pd(t, _mm512_cvtps_pd(_mm256_maskz_loadu_ps(lanes, b + i)));
  }
  return t;
}

// L-inf: the largest |term| over all rows at once (a max is the same in
// any order), with independent accumulators; NaN is probed apart from it.
template <bool kDiff>
bool MaxAbsAvx512(const float* a, const float* b, int64_t n, double* worst) {
  const __m512d sign = _mm512_set1_pd(-0.0);
  __m512d m0 = _mm512_setzero_pd(), m1 = _mm512_setzero_pd();
  __mmask8 nan = 0;
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 = _mm512_andnot_pd(sign, Terms<kDiff>(a, b, i, 0xFF));
    const __m512d d1 =
        _mm512_andnot_pd(sign, Terms<kDiff>(a, b, i + 8, 0xFF));
    nan |= _mm512_cmp_pd_mask(d0, d1, _CMP_UNORD_Q);
    m0 = _mm512_max_pd(m0, d0);
    m1 = _mm512_max_pd(m1, d1);
  }
  for (; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? 0xFF : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512d d = _mm512_andnot_pd(sign, Terms<kDiff>(a, b, i, lanes));
    nan |= _mm512_cmp_pd_mask(d, d, _CMP_UNORD_Q);
    m0 = _mm512_max_pd(m0, d);
  }
  *worst = _mm512_reduce_max_pd(_mm512_max_pd(m0, m1));
  return nan == 0;
}

// L2: eight rows at a time, one per lane, each summed in element order.
template <bool kDiff>
bool MaxRowL2Avx512(const float* a, const float* b, int64_t rows,
                    int64_t row_len, double* worst) {
  const __m256i offsets =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int32_t>(row_len)));
  __m512d best = _mm512_setzero_pd();
  __mmask8 nan = 0;
  for (int64_t r = 0; r < rows; r += 8) {
    const __mmask8 lanes =
        rows - r >= 8 ? 0xFF : static_cast<__mmask8>((1u << (rows - r)) - 1);
    const float* ar = a + r * row_len;
    const float* br = kDiff ? b + r * row_len : nullptr;
    __m512d acc = _mm512_setzero_pd();
    for (int64_t i = 0; i < row_len; ++i) {
      __m512d d = _mm512_cvtps_pd(_mm256_mmask_i32gather_ps(
          _mm256_setzero_ps(), lanes, offsets, ar + i, 4));
      if (kDiff) {
        d = _mm512_sub_pd(d, _mm512_cvtps_pd(_mm256_mmask_i32gather_ps(
                                 _mm256_setzero_ps(), lanes, offsets, br + i,
                                 4)));
      }
      acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
    }
    nan |= _mm512_cmp_pd_mask(acc, acc, _CMP_UNORD_Q);
    best = _mm512_max_pd(best, _mm512_sqrt_pd(acc));
  }
  *worst = _mm512_reduce_max_pd(best);
  return nan == 0;
}

#pragma GCC diagnostic pop
#pragma GCC pop_options
#endif  // EF_NORMS_X86

double MaxRow(const float* a, const float* b, int64_t rows, int64_t row_len,
              Norm norm) {
#if defined(EF_NORMS_X86)
  // The gathers' offsets are 32-bit.
  if (ActiveKernelPath() == KernelPath::kAvx512 && rows > 0 &&
      row_len > 0 && row_len < (int64_t{1} << 28)) {
    double worst = 0.0;
    bool ok = false;
    if (norm == Norm::kLinf) {
      ok = b == nullptr ? MaxAbsAvx512<false>(a, b, rows * row_len, &worst)
                        : MaxAbsAvx512<true>(a, b, rows * row_len, &worst);
    } else if (rows >= 8) {
      // Fewer rows than lanes leave the row sums serial either way.
      ok = b == nullptr ? MaxRowL2Avx512<false>(a, b, rows, row_len, &worst)
                        : MaxRowL2Avx512<true>(a, b, rows, row_len, &worst);
    }
    if (ok) return worst;
  }
#endif
  return MaxRowScalar(a, b, rows, row_len, norm);
}

}  // namespace

double L2Norm(const Tensor& t) {
  return MaxRowNorm(t.data(), 1, t.size(), Norm::kL2);
}

double LinfNorm(const Tensor& t) {
  return MaxRowNorm(t.data(), 1, t.size(), Norm::kLinf);
}

double DiffNorm(const Tensor& a, const Tensor& b, Norm norm) {
  EF_CHECK(a.size() == b.size());
  return MaxRowError(a.data(), b.data(), 1, a.size(), norm);
}

double MaxRowError(const float* a, const float* b, int64_t rows,
                   int64_t row_len, Norm norm) {
  return MaxRow(a, b, rows, row_len, norm);
}

double MaxRowNorm(const float* a, int64_t rows, int64_t row_len, Norm norm) {
  return MaxRow(a, nullptr, rows, row_len, norm);
}

}  // namespace tensor
}  // namespace errorflow
