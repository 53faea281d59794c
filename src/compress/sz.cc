#include "compress/sz.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "compress/bound_util.h"
#include "compress/codec/huffman.h"
#include "tensor/kernels.h"
#include "util/bytes.h"
#include "util/timer.h"

// The AVX-512 code below is compiled under GCC's target pragma, which
// clang does not take; clang builds run the scalar loops.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define EF_SZ_X86 1
#include <immintrin.h>
#endif

namespace errorflow {
namespace compress {

namespace {

constexpr uint32_t kMagic = 0x455A5331;    // "EZS1" (legacy: no codec byte)
constexpr uint32_t kMagicV2 = 0x455A5332;  // "EZS2" (codec byte after magic)
// Residuals quantizing to codes beyond this magnitude take the
// unpredictable escape path (raw float stored losslessly).
constexpr int64_t kMaxCode = (1 << 20);
// Escape-location encodings: dense bitmap vs sorted delta varints.
constexpr uint8_t kEscBitmap = 0;
constexpr uint8_t kEscSparse = 1;

// A `slices` x `rows` x `cols` field stored with a zero halo: one
// leading slice, row and column of zeros, so that each of an element's
// seven Lorenzo neighbours is an unconditional read at a fixed offset,
// and neighbours outside the field read as 0 (SZ's boundary handling).
class HaloField {
 public:
  HaloField(int64_t slices, int64_t rows, int64_t cols)
      : row_(cols + 1),
        plane_((rows + 1) * (cols + 1)),
        values_(static_cast<size_t>((slices + 1) * plane_), 0.0f) {}

  /// Element (s, i, j).
  float* at(int64_t s, int64_t i, int64_t j) {
    return values_.data() + (s + 1) * plane_ + (i + 1) * row_ + j + 1;
  }

  /// Order-1 3-D Lorenzo prediction of the element at `p`:
  ///   f(s-1,i,j)+f(s,i-1,j)+f(s,i,j-1)-f(s-1,i-1,j)
  ///   -f(s-1,i,j-1)-f(s,i-1,j-1)+f(s-1,i-1,j-1),
  /// summed in double in that order.
  double Predict(const float* p) const {
    return static_cast<double>(p[-plane_]) + static_cast<double>(p[-row_]) +
           static_cast<double>(p[-1]) -
           static_cast<double>(p[-plane_ - row_]) -
           static_cast<double>(p[-plane_ - 1]) -
           static_cast<double>(p[-row_ - 1]) +
           static_cast<double>(p[-plane_ - row_ - 1]);
  }

 private:
  int64_t row_;
  int64_t plane_;
  std::vector<float> values_;
};

// Calls `visit(p, idx)` once per element of `halo`'s field, with `p` its
// slot and `idx` its row-major index, in an order in which every
// element's neighbours come first: slice by slice, along the
// anti-diagonals i + j = 0, 1, 2, ... Elements of one anti-diagonal do
// not depend on each other, so their prediction chains run interleaved;
// each element still sees the same neighbours, so the same bits.
template <typename Visit>
void ForEachByDiagonal(HaloField* halo, int64_t slices, int64_t rows,
                       int64_t cols, Visit visit) {
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t t = 0; t < rows + cols - 1; ++t) {
      const int64_t first = std::max<int64_t>(0, t - cols + 1);
      const int64_t last = std::min<int64_t>(rows - 1, t);
      // Down one row and left one column: `cols` slots on in the halo
      // layout, `cols` - 1 elements on in the field.
      float* p = halo->at(s, first, t - first);
      int64_t idx = (s * rows + first) * cols + t - first;
      for (int64_t i = first; i <= last; ++i, p += cols, idx += cols - 1) {
        visit(p, idx);
      }
    }
  }
}

// std::nearbyint under the default round-to-nearest-even mode, inline:
// below 2^52, adding and subtracting 2^52 drops the fraction with that
// rounding; larger magnitudes, infinities and NaN are returned as they
// are, and copysign keeps the sign of a zero result (nearbyint(-0.3) is
// -0).
inline double RoundHalfEven(double x) {
  const double magnitude = std::fabs(x);
  if (!(magnitude < 0x1p52)) return x;
  return std::copysign((magnitude + 0x1p52) - 0x1p52, x);
}

// Each element's code, or kEscaped, in element order; compacted by
// CompactCodes.
constexpr uint32_t kEscaped = UINT32_MAX;

// Moves the escaped elements of `out->codes` (kEscaped, in element order)
// to `out->escape_indices` and their input floats to `out->raw_values`,
// closing the gaps.
void CompactCodes(const float* data, LorenzoCodes* out) {
  uint32_t* code_at = out->codes.data();
  const int64_t n = static_cast<int64_t>(out->codes.size());
  size_t n_codes = 0;
  for (int64_t idx = 0; idx < n; ++idx) {
    if (code_at[idx] != kEscaped) {
      code_at[n_codes++] = code_at[idx];
    } else {
      // The raw value is the input float itself, copied as bits.
      out->escape_indices.push_back(idx);
      out->raw_values.push_back(data[idx]);
    }
  }
  out->codes.resize(n_codes);
}

LorenzoCodes LorenzoQuantizeScalar(const float* data, int64_t slices,
                                   int64_t rows, int64_t cols, double eb) {
  const int64_t n = slices * rows * cols;
  HaloField recon(slices, rows, cols);
  LorenzoCodes out;
  out.codes.resize(static_cast<size_t>(n));
  uint32_t* code_at = out.codes.data();
  const double inv_bin = eb > 0.0 ? 1.0 / (2.0 * eb) : 0.0;
  ForEachByDiagonal(&recon, slices, rows, cols, [&](float* p, int64_t idx) {
    const double v = data[idx];
    if (eb > 0.0) {
      const double pred = recon.Predict(p);
      const double q = RoundHalfEven((v - pred) * inv_bin);
      if (std::fabs(q) <= static_cast<double>(kMaxCode)) {
        // Validate the bound on the value as actually stored (float), not
        // the double intermediate, so FP32 rounding cannot break the
        // guarantee.
        const float rec = static_cast<float>(pred + q * 2.0 * eb);
        if (std::fabs(static_cast<double>(rec) - v) <= eb) {
          *p = rec;
          code_at[idx] = ZigzagEncode(static_cast<int32_t>(q));
          return;
        }
      }
    }
    // The input float itself, not float(v): converting through double
    // quiets a signalling NaN wherever the compiler does not fold it away.
    *p = data[idx];
    code_at[idx] = kEscaped;
  });
  CompactCodes(data, &out);
  return out;
}

// Each element's code, zigzag-decoded, or escaped float, in element
// order, as 32 bits in its slot of `out`, so a stream that runs short
// fails where it did element by element.
Status UnpackLorenzoCodesScalar(const std::vector<uint32_t>& codes,
                                const uint8_t* unpred, const char* raw,
                                uint64_t n_raw, int64_t n, float* out) {
  size_t raw_pos = 0, code_pos = 0;
  for (int64_t idx = 0; idx < n; ++idx) {
    if (unpred[idx] != 0) {
      if (raw_pos >= n_raw) {
        return Status::Corruption("sz: raw values exhausted");
      }
      std::memcpy(&out[idx], raw + raw_pos * sizeof(float), sizeof(float));
      ++raw_pos;
    } else {
      if (code_pos >= codes.size()) {
        return Status::Corruption("sz: codes exhausted");
      }
      const int32_t q = ZigzagDecode(codes[code_pos++]);
      std::memcpy(&out[idx], &q, sizeof(q));
    }
  }
  return Status::OK();
}

void LorenzoChainsScalar(const uint8_t* unpred, int64_t slices, int64_t rows,
                         int64_t cols, double eb, float* out) {
  // The unpacked bits go into the halo layout (a code parked in its
  // element's slot as int32 bits); the prediction chains then read only
  // elements visited before the one they write.
  HaloField field(slices, rows, cols);
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t i = 0; i < rows; ++i) {
      std::memcpy(field.at(s, i, 0), out + (s * rows + i) * cols,
                  static_cast<size_t>(cols) * sizeof(float));
    }
  }
  ForEachByDiagonal(&field, slices, rows, cols, [&](float* p, int64_t idx) {
    if (unpred[idx] != 0) return;
    int32_t q;
    std::memcpy(&q, p, sizeof(q));
    *p = static_cast<float>(field.Predict(p) + q * 2.0 * eb);
  });
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t i = 0; i < rows; ++i) {
      std::memcpy(out + (s * rows + i) * cols, field.at(s, i, 0),
                  static_cast<size_t>(cols) * sizeof(float));
    }
  }
}

#if defined(EF_SZ_X86)
// ---------------------------------------------------------------------------
// AVX-512 wavefronts. Elements of one anti-diagonal t = i + j of a slice
// do not depend on each other, so 8 of them go through the scalar loops'
// operations at once, lane l holding column j = 8c + l of chunk c. Each
// lane runs the same double operations in the same order as the scalar
// element, so the codes and floats keep their bits.
//
// A diagonal's reconstructed values, as doubles, are what the next two
// diagonals read: (i - 1, j) is lane j of diagonal t - 1, (i, j - 1) that
// row shifted up a lane (chunk c - 1's lane 7, or the zero halo, shifted
// in), and (i - 1, j - 1) diagonal t - 2 shifted likewise. Lanes outside
// the field hold zero, which is also the halo row above row 0. A lone
// slice (a 2-D field) at most 16 columns wide keeps its two previous
// diagonals in registers. Otherwise each slice writes its diagonals to a
// diagonal-major scratch, where the next slice reads its plane terms, and
// up to kSlicesInFlight consecutive slices advance together, each a
// diagonal behind the one before it: independent chains the core
// overlaps. The input and the output stay in element order and are
// gathered and scattered.
// ---------------------------------------------------------------------------

constexpr int64_t kSlicesInFlight = 4;

// The AVX-512 path takes fields whose element indices fit its 32-bit
// gather and scatter offsets.
bool UseWavefronts(int64_t slices, int64_t rows, int64_t cols) {
  return tensor::ActiveKernelPath() == tensor::KernelPath::kAvx512 &&
         slices * rows * cols < (int64_t{1} << 31);
}

// Everything from here to the matching pop is compiled for AVX-512 and
// only runs once UseWavefronts has checked the CPU.
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma")
// GCC 12's avx512fintrin.h builds _mm512_undefined_* from a self-
// initialized variable, which -Wuninitialized reports in every caller of
// the intrinsics that use it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define EF_SZ_INLINE inline __attribute__((always_inline))

// Lane l of `cur` with lane 7 of `below` shifted in under it: the column
// to the left of each lane's.
EF_SZ_INLINE __m512d ShiftUp(__m512d cur, __m512d below) {
  return _mm512_castsi512_pd(
      _mm512_alignr_epi64(_mm512_castpd_si512(cur),
                          _mm512_castpd_si512(below), 7));
}

// HaloField::Predict per lane: the seven terms in the same order, from
// this slice's diagonals t - 1 and t - 2 (`d1`, `d2`) and the previous
// slice's t, t - 1 and t - 2 (`p0`, `p1`, `p2`), each `below` the chunk
// under it. In slice 0 the plane terms are the zero halo, and subtracting
// +0 leaves every double as it is, so those two steps are skipped.
struct ChunkRows {
  __m512d d1, d2, p1, p2;
};

EF_SZ_INLINE ChunkRows ZeroRows() {
  const __m512d zero = _mm512_setzero_pd();
  return ChunkRows{zero, zero, zero, zero};
}

template <bool kPlane>
EF_SZ_INLINE __m512d Predict(const ChunkRows& cur, const ChunkRows& below,
                             __m512d p0) {
  __m512d pred = _mm512_add_pd(p0, cur.d1);
  pred = _mm512_add_pd(pred, ShiftUp(cur.d1, below.d1));
  if (kPlane) {
    pred = _mm512_sub_pd(pred, cur.p1);
    pred = _mm512_sub_pd(pred, ShiftUp(cur.p1, below.p1));
  }
  pred = _mm512_sub_pd(pred, ShiftUp(cur.d2, below.d2));
  return _mm512_add_pd(pred, kPlane ? ShiftUp(cur.p2, below.p2)
                                    : _mm512_setzero_pd());
}

// The elements of diagonal t of one slice: columns [first, last].
struct DiagonalSpan {
  int64_t first;
  int64_t last;
  DiagonalSpan(int64_t rows, int64_t cols, int64_t t)
      : first(std::max<int64_t>(0, t - rows + 1)),
        last(std::min(cols - 1, t)) {}
  /// Lanes of chunk c (columns 8c .. 8c + 7) inside the span.
  __mmask8 Lanes(int64_t c) const {
    const int64_t lo = std::max<int64_t>(0, first - 8 * c);
    const int64_t hi = std::min<int64_t>(8, last - 8 * c + 1);
    if (hi <= lo) return 0;
    return static_cast<__mmask8>(((1u << hi) - 1u) & ~((1u << lo) - 1u));
  }
  /// One past the last chunk holding an element.
  int64_t EndChunk() const { return last / 8 + 1; }
};

// Element indices of chunk c's lanes on diagonal t of slice s: column j
// sits in row t - j.
EF_SZ_INLINE __m256i ChunkIndices(int64_t s, int64_t t, int64_t c,
                                  int64_t rows, int64_t cols) {
  const int64_t j0 = 8 * c;
  const int64_t base = (s * rows + t - j0) * cols + j0;
  return _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int32_t>(base)),
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int32_t>(1 - cols))));
}

// The predict+quantize step of LorenzoQuantizeScalar on one chunk: reads
// the lanes' inputs, writes their codes (kEscaped for escapes) and
// returns the floats stored, as doubles, zero outside `lanes`.
//
// q * 2.0 * eb is taken as q * (2 * eb): both round the exact product
// 2 q eb once, since doubling is exact (2 * eb is finite on this path and
// q * 2 is exact for every code in range; other lanes escape either way).
struct QuantizeChunk {
  const float* data;
  uint32_t* code_at;
  __m512d eb, two_eb, inv_bin;
  int64_t escapes = 0;

  EF_SZ_INLINE __m512d operator()(__m256i idx, __mmask8 lanes,
                                  __m512d pred) {
    const __m512d sign_bit = _mm512_set1_pd(-0.0);
    const __m256 vf = _mm256_mmask_i32gather_ps(_mm256_setzero_ps(), lanes,
                                                idx, data, 4);
    const __m512d v = _mm512_cvtps_pd(vf);
    // RoundHalfEven is nearbyint: rounding to an integer, ties to even.
    const __m512d q = _mm512_roundscale_pd(
        _mm512_mul_pd(_mm512_sub_pd(v, pred), inv_bin),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __mmask8 in_range =
        _mm512_cmp_pd_mask(_mm512_andnot_pd(sign_bit, q),
                           _mm512_set1_pd(static_cast<double>(kMaxCode)),
                           _CMP_LE_OQ);
    const __m512d rec = _mm512_cvtps_pd(
        _mm512_cvtpd_ps(_mm512_add_pd(pred, _mm512_mul_pd(q, two_eb))));
    const __mmask8 kept =
        in_range & _mm512_cmp_pd_mask(
                       _mm512_andnot_pd(sign_bit, _mm512_sub_pd(rec, v)), eb,
                       _CMP_LE_OQ);
    if (lanes != 0) {
      const __m256i qi = _mm512_cvttpd_epi32(q);
      const __m256i zigzag = _mm256_xor_si256(_mm256_slli_epi32(qi, 1),
                                              _mm256_srai_epi32(qi, 31));
      _mm256_mask_i32scatter_epi32(
          code_at, lanes, idx,
          _mm256_mask_blend_epi32(
              kept, _mm256_set1_epi32(static_cast<int32_t>(kEscaped)),
              zigzag),
          4);
      escapes += __builtin_popcount(lanes & ~kept & 0xFF);
    }
    return _mm512_maskz_mov_pd(lanes, _mm512_mask_blend_pd(kept, v, rec));
  }
};

// The reconstruct step of LorenzoReconstructScalar on one chunk: reads
// the lanes' codes (decoded to int32) or escaped floats from `values` in
// element order, writes the floats to `out` (which may be `values`), and
// returns them as doubles, zero outside `lanes`.
struct ReconstructChunk {
  const int32_t* values;
  const uint8_t* flags;  // Readable 4 bytes at a time; null: no escapes.
  float* out;
  __m512d eb;

  EF_SZ_INLINE __m512d operator()(__m256i idx, __mmask8 lanes,
                                  __m512d pred) const {
    const __m256i q = _mm256_mmask_i32gather_epi32(_mm256_setzero_si256(),
                                                   lanes, idx, values, 4);
    __mmask8 raw = 0;
    if (flags != nullptr) {
      const __m256i f = _mm256_mmask_i32gather_epi32(
          _mm256_setzero_si256(), lanes, idx, flags, 1);
      raw = _mm256_test_epi32_mask(f, _mm256_set1_epi32(0xFF));
    }
    const __m512d step = _mm512_mul_pd(
        _mm512_mul_pd(_mm512_cvtepi32_pd(q), _mm512_set1_pd(2.0)), eb);
    const __m256 rec =
        _mm256_mask_blend_ps(raw, _mm512_cvtpd_ps(_mm512_add_pd(pred, step)),
                             _mm256_castsi256_ps(q));
    _mm256_mask_i32scatter_ps(out, lanes, idx, rec, 4);
    return _mm512_maskz_cvtps_pd(lanes, rec);
  }
};

// A lone slice at most 8 * kChunks columns wide: every diagonal computes
// all its chunks, and the two previous diagonals stay in registers.
template <int kChunks, typename Step>
EF_SZ_INLINE void LoneSliceWavefronts(int64_t rows, int64_t cols,
                                      Step* step) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d d1[kChunks], d2[kChunks];
  for (int c = 0; c < kChunks; ++c) d1[c] = d2[c] = zero;
  for (int64_t t = 0; t < rows + cols - 1; ++t) {
    const DiagonalSpan span(rows, cols, t);
    __m512d next[kChunks];
    for (int c = 0; c < kChunks; ++c) {
      const ChunkRows cur{d1[c], d2[c], zero, zero};
      const ChunkRows below =
          c > 0 ? ChunkRows{d1[c - 1], d2[c - 1], zero, zero} : ZeroRows();
      next[c] = (*step)(ChunkIndices(0, t, c, rows, cols), span.Lanes(c),
                        Predict<false>(cur, below, zero));
    }
    for (int c = 0; c < kChunks; ++c) {
      d2[c] = d1[c];
      d1[c] = next[c];
    }
  }
}

// Any field: each slice's diagonals go to a diagonal-major scratch of
// doubles, one row per diagonal (column j at offset j) and two zero rows
// before the first; a ring holds the slices in flight and the one before
// them. A diagonal writes the chunks its elements span, zero in the
// lanes outside it. A ring row only ever holds diagonal t of its slices,
// so it is written at the same chunks each time, and the lanes no chunk
// covers, the zero halo after a row-0 end among them, keep their zeros.
template <typename Step>
EF_SZ_INLINE void SliceWavefronts(int64_t slices, int64_t rows,
                                  int64_t cols, Step* step) {
  constexpr int64_t kRing = kSlicesInFlight + 1;
  const int64_t stride = (cols + 7) / 8 * 8;
  const int64_t slice_rows = rows + cols + 1;
  std::vector<double> scratch(static_cast<size_t>(kRing * slice_rows * stride),
                              0.0);
  const auto row_of = [&](int64_t s, int64_t t) {
    return scratch.data() + ((s % kRing) * slice_rows + t + 2) * stride;
  };
  const int64_t diagonals = rows + cols - 1;
  const auto diagonal = [&](int64_t s, int64_t t) {
    const DiagonalSpan span(rows, cols, t);
    double* row = row_of(s, t);
    const double* d1 = row_of(s, t - 1);
    const double* d2 = row_of(s, t - 2);
    const bool plane = s > 0;
    const double* p0 = plane ? row_of(s - 1, t) : nullptr;
    const double* p1 = plane ? row_of(s - 1, t - 1) : nullptr;
    const double* p2 = plane ? row_of(s - 1, t - 2) : nullptr;
    const auto load = [&](int64_t j0) {
      ChunkRows r = ZeroRows();
      r.d1 = _mm512_loadu_pd(d1 + j0);
      r.d2 = _mm512_loadu_pd(d2 + j0);
      if (plane) {
        r.p1 = _mm512_loadu_pd(p1 + j0);
        r.p2 = _mm512_loadu_pd(p2 + j0);
      }
      return r;
    };
    int64_t c = span.first / 8;
    ChunkRows below = c > 0 ? load(8 * (c - 1)) : ZeroRows();
    for (const int64_t c_end = span.EndChunk(); c < c_end; ++c) {
      const int64_t j0 = 8 * c;
      const ChunkRows cur = load(j0);
      const __m512d pred =
          plane ? Predict<true>(cur, below, _mm512_loadu_pd(p0 + j0))
                : Predict<false>(cur, below, _mm512_setzero_pd());
      below = cur;
      _mm512_storeu_pd(row + j0, (*step)(ChunkIndices(s, t, c, rows, cols),
                                         span.Lanes(c), pred));
    }
  };
  for (int64_t s0 = 0; s0 < slices; s0 += kSlicesInFlight) {
    const int64_t group = std::min(kSlicesInFlight, slices - s0);
    for (int64_t k = 0; k < diagonals + group - 1; ++k) {
      for (int64_t g = 0; g < group; ++g) {
        if (k - g >= 0 && k - g < diagonals) diagonal(s0 + g, k - g);
      }
    }
  }
}

// Runs `step` on every chunk of every diagonal, in an order in which a
// diagonal follows the two before it in its slice and the same diagonal
// of the slice before.
template <typename Step>
void Wavefronts(int64_t slices, int64_t rows, int64_t cols, Step* step) {
  if (slices == 1 && cols <= 8) {
    LoneSliceWavefronts<1>(rows, cols, step);
  } else if (slices == 1 && cols <= 16) {
    LoneSliceWavefronts<2>(rows, cols, step);
  } else {
    SliceWavefronts(slices, rows, cols, step);
  }
}

LorenzoCodes LorenzoQuantizeAvx512(const float* data, int64_t slices,
                                   int64_t rows, int64_t cols, double eb) {
  LorenzoCodes out;
  out.codes.resize(static_cast<size_t>(slices * rows * cols));
  QuantizeChunk step{data, out.codes.data(), _mm512_set1_pd(eb),
                     _mm512_set1_pd(2.0 * eb),
                     _mm512_set1_pd(1.0 / (2.0 * eb))};
  Wavefronts(slices, rows, cols, &step);
  if (step.escapes > 0) CompactCodes(data, &out);
  return out;
}

// Escape flags set in `unpred`, 64 at a time.
uint64_t CountEscapes(const uint8_t* unpred, int64_t n) {
  uint64_t escapes = 0;
  int64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i flags = _mm512_loadu_si512(unpred + i);
    escapes += static_cast<uint64_t>(
        __builtin_popcountll(_mm512_test_epi8_mask(flags, flags)));
  }
  for (; i < n; ++i) escapes += unpred[i] != 0;
  return escapes;
}

Status UnpackLorenzoCodesAvx512(const std::vector<uint32_t>& codes,
                                const uint8_t* unpred, const char* raw,
                                uint64_t n_raw, int64_t n, float* out) {
  const uint64_t escapes = CountEscapes(unpred, n);
  if (escapes > n_raw || static_cast<uint64_t>(n) - escapes > codes.size()) {
    // The stream runs short: the scalar loop fails where it does.
    return UnpackLorenzoCodesScalar(codes, unpred, raw, n_raw, n, out);
  }
  // 16 codes at a time where 16 elements have no escape.
  size_t code_pos = 0, raw_pos = 0;
  for (int64_t i = 0; i < n;) {
    if (i + 16 <= n &&
        _mm_test_all_zeros(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(unpred + i)),
            _mm_set1_epi8(-1))) {
      const __m512i z = _mm512_loadu_si512(codes.data() + code_pos);
      // ZigzagDecode: (z >> 1) ^ -(z & 1).
      _mm512_storeu_si512(
          out + i,
          _mm512_xor_si512(
              _mm512_srli_epi32(z, 1),
              _mm512_sub_epi32(_mm512_setzero_si512(),
                               _mm512_and_si512(z, _mm512_set1_epi32(1)))));
      code_pos += 16;
      i += 16;
      continue;
    }
    for (const int64_t end = std::min(n, i + 16); i < end; ++i) {
      int32_t bits;
      if (unpred[i] != 0) {
        std::memcpy(&bits, raw + raw_pos++ * sizeof(float), sizeof(float));
      } else {
        bits = ZigzagDecode(codes[code_pos++]);
      }
      std::memcpy(out + i, &bits, sizeof(bits));
    }
  }
  return Status::OK();
}

void LorenzoChainsAvx512(const uint8_t* unpred, int64_t slices,
                         int64_t rows, int64_t cols, double eb, float* out) {
  const int64_t n = slices * rows * cols;
  // Escape flags with three bytes of padding for the 4-byte gathers.
  std::vector<uint8_t> flags;
  if (CountEscapes(unpred, n) > 0) {
    flags.assign(unpred, unpred + n);
    flags.resize(flags.size() + 3, 0);
  }
  // Each element's bits are gathered before its float is scattered over
  // them.
  ReconstructChunk step{reinterpret_cast<const int32_t*>(out),
                        flags.empty() ? nullptr : flags.data(), out,
                        _mm512_set1_pd(eb)};
  Wavefronts(slices, rows, cols, &step);
}

#undef EF_SZ_INLINE
#pragma GCC diagnostic pop
#pragma GCC pop_options

#endif  // EF_SZ_X86
}  // namespace

LorenzoCodes LorenzoQuantize(const float* data, int64_t slices,
                             int64_t rows, int64_t cols, double eb) {
#if defined(EF_SZ_X86)
  if (eb > 0.0 && std::isfinite(2.0 * eb) &&
      UseWavefronts(slices, rows, cols)) {
    return LorenzoQuantizeAvx512(data, slices, rows, cols, eb);
  }
#endif
  return LorenzoQuantizeScalar(data, slices, rows, cols, eb);
}

Status UnpackLorenzoCodes(const std::vector<uint32_t>& codes,
                          const uint8_t* unpred, const char* raw,
                          uint64_t n_raw, int64_t n, float* out) {
#if defined(EF_SZ_X86)
  if (UseWavefronts(1, 1, n)) {
    return UnpackLorenzoCodesAvx512(codes, unpred, raw, n_raw, n, out);
  }
#endif
  return UnpackLorenzoCodesScalar(codes, unpred, raw, n_raw, n, out);
}

void LorenzoChains(const uint8_t* unpred, int64_t slices, int64_t rows,
                   int64_t cols, double eb, float* out) {
#if defined(EF_SZ_X86)
  if (UseWavefronts(slices, rows, cols)) {
    LorenzoChainsAvx512(unpred, slices, rows, cols, eb, out);
    return;
  }
#endif
  LorenzoChainsScalar(unpred, slices, rows, cols, eb, out);
}

Status LorenzoReconstruct(const std::vector<uint32_t>& codes,
                          const uint8_t* unpred, const char* raw,
                          uint64_t n_raw, int64_t slices, int64_t rows,
                          int64_t cols, double eb, float* out) {
  EF_RETURN_IF_ERROR(UnpackLorenzoCodes(codes, unpred, raw, n_raw,
                                        slices * rows * cols, out));
  LorenzoChains(unpred, slices, rows, cols, eb, out);
  return Status::OK();
}

Result<Compressed> SzCompressor::Compress(const Tensor& data,
                                          const ErrorBound& bound) {
  if (data.size() == 0) {
    return Status::InvalidArgument("sz: empty tensor");
  }
  util::Stopwatch timer;
  EF_ASSIGN_OR_RETURN(const double abs_tol, ResolveAbsoluteBound(data, bound));
  const int64_t n = data.size();
  // Enforced per element: an L2 budget tol holds when every element is
  // within tol / sqrt(n), since ||d||2 <= sqrt(n) ||d||inf.
  const double eb = bound.norm == Norm::kLinf
                        ? abs_tol
                        : abs_tol / std::sqrt(static_cast<double>(n));
  int64_t slices, rows, cols;
  CollapseTo3d(data.shape(), &slices, &rows, &cols);
  const LorenzoCodes quantized =
      LorenzoQuantize(data.data(), slices, rows, cols, eb);

  util::ByteWriter header;
  header.PutU32(kMagicV2);
  header.PutU8(static_cast<uint8_t>(CodecId::kHuffman));
  header.PutShape(data.shape());
  header.PutF64(eb);
  header.PutU64(quantized.raw_values.size());
  header.PutU64(quantized.codes.size());

  // Escape locations: sparse delta-varints when rare, bitmap otherwise.
  const size_t bitmap_bytes = (static_cast<size_t>(n) + 7) / 8;
  if (quantized.escape_indices.size() * 4 <= bitmap_bytes) {
    header.PutU8(kEscSparse);
    int64_t prev = -1;
    for (int64_t idx : quantized.escape_indices) {
      header.PutVarint64(static_cast<uint64_t>(idx - prev - 1));
      prev = idx;
    }
  } else {
    header.PutU8(kEscBitmap);
    std::vector<uint8_t> bitmap(bitmap_bytes, 0);
    for (int64_t idx : quantized.escape_indices) {
      bitmap[static_cast<size_t>(idx) / 8] |=
          static_cast<uint8_t>(1u << (idx % 8));
    }
    header.Raw(bitmap.data(), bitmap.size());
  }
  header.Raw(quantized.raw_values.data(),
             quantized.raw_values.size() * sizeof(float));

  // The entropy stage always runs — an empty code vector (every element
  // escaped) encodes as a valid zero-symbol stream.
  util::BitWriter bits;
  EncodeStats stats;
  EF_RETURN_IF_ERROR(HuffmanCodec::Encode(quantized.codes, &bits, &stats));
  RecordCodecEncode(*GetCodec(CodecId::kHuffman), quantized.codes.size(),
                    stats);
  std::string blob = header.Finish();
  blob += bits.Finish();

  Compressed out;
  out.blob = std::move(blob);
  out.original_bytes = n * static_cast<int64_t>(sizeof(float));
  out.resolved_abs_tolerance = eb;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<Decompressed> SzCompressor::Decompress(const std::string& blob) {
  util::Stopwatch timer;
  util::ByteReader reader(blob);
  EF_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  // EZS2 carries a codec-negotiation byte; legacy EZS1 streams are
  // implicitly Huffman and decode bit-exactly through the same path.
  const EntropyCodec* codec = GetCodec(CodecId::kHuffman);
  if (magic == kMagicV2) {
    EF_ASSIGN_OR_RETURN(uint8_t codec_byte, reader.GetU8());
    EF_ASSIGN_OR_RETURN(codec, CodecFromByte(codec_byte));
  } else if (magic != kMagic) {
    return Status::Corruption("sz: bad magic");
  }
  EF_ASSIGN_OR_RETURN(auto shape, reader.GetShape());
  EF_RETURN_IF_ERROR(ValidateBlobShape(shape, blob.size()));
  EF_ASSIGN_OR_RETURN(double eb, reader.GetF64());
  EF_ASSIGN_OR_RETURN(uint64_t n_raw, reader.GetU64());
  EF_ASSIGN_OR_RETURN(uint64_t n_codes, reader.GetU64());
  EF_ASSIGN_OR_RETURN(uint8_t esc_mode, reader.GetU8());
  const int64_t n = tensor::NumElements(shape);
  if (n <= 0) return Status::Corruption("sz: empty shape");
  // Check each count individually first, then the checked sum: a wrapped
  // n_raw + n_codes could otherwise masquerade as consistent.
  uint64_t count_sum = 0;
  if (n_raw > static_cast<uint64_t>(n) ||
      n_codes > static_cast<uint64_t>(n) ||
      !util::CheckedAdd(n_raw, n_codes, &count_sum) ||
      count_sum != static_cast<uint64_t>(n)) {
    return Status::Corruption("sz: element counts inconsistent");
  }

  // Escape membership.
  std::vector<uint8_t> unpred(static_cast<size_t>(n), 0);
  if (esc_mode == kEscSparse) {
    int64_t prev = -1;
    for (uint64_t k = 0; k < n_raw; ++k) {
      EF_ASSIGN_OR_RETURN(uint64_t delta, reader.GetVarint64());
      const int64_t idx = prev + 1 + static_cast<int64_t>(delta);
      if (idx < 0 || idx >= n) {
        return Status::Corruption("sz: escape index out of range");
      }
      unpred[static_cast<size_t>(idx)] = 1;
      prev = idx;
    }
  } else if (esc_mode == kEscBitmap) {
    const size_t bitmap_bytes = (static_cast<size_t>(n) + 7) / 8;
    if (reader.remaining() < bitmap_bytes) {
      return Status::Corruption("sz: bitmap truncated");
    }
    for (size_t b = 0; b < bitmap_bytes; ++b) {
      EF_ASSIGN_OR_RETURN(uint8_t byte, reader.GetU8());
      for (int bit = 0; bit < 8; ++bit) {
        const size_t idx = b * 8 + static_cast<size_t>(bit);
        if (idx < static_cast<size_t>(n)) {
          unpred[idx] = (byte >> bit) & 1u;
        }
      }
    }
  } else {
    return Status::Corruption("sz: bad escape mode");
  }

  uint64_t raw_bytes = 0;
  if (!util::CheckedMul(n_raw, sizeof(float), &raw_bytes) ||
      reader.remaining() < raw_bytes) {
    return Status::Corruption("sz: blob truncated");
  }
  EF_ASSIGN_OR_RETURN(auto rest, reader.Rest());
  // Escaped values sit at arbitrary byte offsets in the blob; each is
  // copied out rather than read through a (misaligned) float pointer.
  const char* raw = rest.first;
  const char* huff_start = rest.first + n_raw * sizeof(float);
  const size_t huff_size = rest.second - n_raw * sizeof(float);

  std::vector<uint32_t> codes;
  if (magic == kMagicV2 || n_codes > 0) {
    // V2 always carries an entropy stream (possibly the zero-symbol
    // encoding); legacy V1 omitted it entirely when every element escaped.
    util::BitReader bits(huff_start, huff_size);
    EF_ASSIGN_OR_RETURN(codes, codec->Decode(&bits, n_codes));
    RecordCodecDecode(*codec, n_codes);
  }

  int64_t slices, rows, cols;
  CollapseTo3d(shape, &slices, &rows, &cols);
  Tensor out(shape);
  EF_RETURN_IF_ERROR(LorenzoReconstruct(codes, unpred.data(), raw, n_raw,
                                        slices, rows, cols, eb, out.data()));

  Decompressed result;
  result.data = std::move(out);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace compress
}  // namespace errorflow
