#include "compress/zfp.h"

#include <cmath>
#include <cstring>

#include "compress/bound_util.h"
#include "util/bitstream.h"
#include "util/bytes.h"
#include "util/timer.h"

namespace errorflow {
namespace compress {

namespace {

constexpr uint32_t kMagic = 0x455A4650;  // "EZFP"
constexpr uint8_t kModeBlocks = 0;
constexpr uint8_t kModeRaw = 1;

// Orthonormal 4-point DCT-II basis: T[k][n] = c_k cos(pi (n + 1/2) k / 4).
struct Basis {
  double t[4][4];
  double linf_row_gain;  // max_i sum_k |T[k][i]| (inverse-transform L1 row).

  Basis() {
    for (int k = 0; k < 4; ++k) {
      const double ck = k == 0 ? std::sqrt(0.25) : std::sqrt(0.5);
      for (int n = 0; n < 4; ++n) {
        t[k][n] = ck * std::cos(M_PI * (n + 0.5) * k / 4.0);
      }
    }
    linf_row_gain = 0.0;
    for (int i = 0; i < 4; ++i) {
      double s = 0.0;
      for (int k = 0; k < 4; ++k) s += std::fabs(t[k][i]);
      linf_row_gain = std::max(linf_row_gain, s);
    }
  }
};

const Basis& GetBasis() {
  static const Basis basis;
  return basis;
}

// Applies the forward (coef = T x) or inverse (x = T^T coef) transform to
// every length-4 line along dimension `dim` of a 4^3 buffer (unused dims
// have extent 1).
void TransformDim(double* block, const int64_t ext[3], int dim,
                  bool inverse) {
  if (ext[dim] != 4) return;
  const Basis& b = GetBasis();
  const int64_t stride[3] = {ext[1] * ext[2], ext[2], 1};
  for (int64_t a = 0; a < (dim == 0 ? 1 : ext[0]); ++a) {
    for (int64_t c = 0; c < (dim == 1 ? 1 : ext[1]); ++c) {
      for (int64_t e = 0; e < (dim == 2 ? 1 : ext[2]); ++e) {
        int64_t base = 0;
        if (dim != 0) base += a * stride[0];
        if (dim != 1) base += c * stride[1];
        if (dim != 2) base += e * stride[2];
        double line[4], out[4];
        for (int i = 0; i < 4; ++i) line[i] = block[base + i * stride[dim]];
        for (int k = 0; k < 4; ++k) {
          double acc = 0.0;
          for (int n = 0; n < 4; ++n) {
            acc += (inverse ? b.t[n][k] : b.t[k][n]) * line[n];
          }
          out[k] = acc;
        }
        for (int i = 0; i < 4; ++i) block[base + i * stride[dim]] = out[i];
      }
    }
  }
}

// Unrolled inverse of the separable 2-D transform on a 4x4 block:
// X = T^T C T, with T the orthonormal DCT-II basis.
inline void InverseTransform4x4(double* block) {
  const Basis& b = GetBasis();
  double tmp[16];
  // Columns: tmp = T^T * C.
  for (int j = 0; j < 4; ++j) {
    const double c0 = block[j], c1 = block[4 + j], c2 = block[8 + j],
                 c3 = block[12 + j];
    for (int i = 0; i < 4; ++i) {
      tmp[i * 4 + j] = b.t[0][i] * c0 + b.t[1][i] * c1 + b.t[2][i] * c2 +
                       b.t[3][i] * c3;
    }
  }
  // Rows: X = tmp * T (i.e. apply T^T on the right-hand index).
  for (int i = 0; i < 4; ++i) {
    const double r0 = tmp[i * 4], r1 = tmp[i * 4 + 1], r2 = tmp[i * 4 + 2],
                 r3 = tmp[i * 4 + 3];
    for (int j = 0; j < 4; ++j) {
      block[i * 4 + j] = b.t[0][j] * r0 + b.t[1][j] * r1 +
                         b.t[2][j] * r2 + b.t[3][j] * r3;
    }
  }
}

uint64_t Zigzag64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t Unzigzag64(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

int BitLength(uint64_t v) {
  int bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

}  // namespace

Result<Compressed> ZfpCompressor::Compress(const Tensor& data,
                                           const ErrorBound& bound) {
  if (data.size() == 0) return Status::InvalidArgument("zfp: empty tensor");
  if (!SupportsNorm(bound.norm)) {
    return Status::NotImplemented(
        "zfp: L2 error-bound mode is not supported (fixed-accuracy mode "
        "bounds the pointwise/Linf error only)");
  }
  util::Stopwatch timer;
  EF_ASSIGN_OR_RETURN(const double eb, ResolveAbsoluteBound(data, bound));
  const int64_t n = data.size();

  int64_t dims[3];
  CollapseTo3d(data.shape(), &dims[0], &dims[1], &dims[2]);
  const int64_t bext[3] = {dims[0] > 1 ? 4 : 1, dims[1] > 1 ? 4 : 1,
                           dims[2] > 1 ? 4 : 1};
  int d = 0;
  for (int i = 0; i < 3; ++i) d += bext[i] == 4 ? 1 : 0;
  if (d == 0) d = 1;

  util::ByteWriter header;
  header.PutU32(kMagic);
  header.PutShape(data.shape());
  header.PutF64(eb);

  if (eb <= 0.0) {
    // Degenerate tolerance: store losslessly.
    header.PutU8(kModeRaw);
    std::string blob = header.Finish();
    blob.append(reinterpret_cast<const char*>(data.data()),
                static_cast<size_t>(n) * sizeof(float));
    Compressed out;
    out.blob = std::move(blob);
    out.original_bytes = n * static_cast<int64_t>(sizeof(float));
    out.resolved_abs_tolerance = 0.0;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }
  header.PutU8(kModeBlocks);

  const double gain = std::pow(GetBasis().linf_row_gain, d);
  // Safety factor absorbs double->float rounding in reconstruction.
  const double step = 2.0 * eb / gain * 0.98;
  const double inv_step = 1.0 / step;

  util::BitWriter bits;
  const int64_t nb[3] = {(dims[0] + bext[0] - 1) / bext[0],
                         (dims[1] + bext[1] - 1) / bext[1],
                         (dims[2] + bext[2] - 1) / bext[2]};
  const int64_t block_elems = bext[0] * bext[1] * bext[2];
  std::vector<double> block(static_cast<size_t>(block_elems));
  std::vector<uint64_t> zz(static_cast<size_t>(block_elems));

  // The DC coefficient (index 0 after the separable transform) carries the
  // block mean and varies slowly across blocks: it is delta-coded against
  // the previous block's DC with its own bit-length field, while the AC
  // coefficients share one per-block magnitude header. Mirrors ZFP's
  // separate common-exponent handling of the DC term.
  int64_t prev_dc = 0;
  for (int64_t b0 = 0; b0 < nb[0]; ++b0) {
    for (int64_t b1 = 0; b1 < nb[1]; ++b1) {
      for (int64_t b2 = 0; b2 < nb[2]; ++b2) {
        // Gather with edge replication.
        for (int64_t z = 0; z < bext[0]; ++z) {
          for (int64_t y = 0; y < bext[1]; ++y) {
            for (int64_t x = 0; x < bext[2]; ++x) {
              const int64_t gz = std::min(dims[0] - 1, b0 * bext[0] + z);
              const int64_t gy = std::min(dims[1] - 1, b1 * bext[1] + y);
              const int64_t gx = std::min(dims[2] - 1, b2 * bext[2] + x);
              block[static_cast<size_t>((z * bext[1] + y) * bext[2] + x)] =
                  data[(gz * dims[1] + gy) * dims[2] + gx];
            }
          }
        }
        for (int dim = 0; dim < 3; ++dim) {
          TransformDim(block.data(), bext, dim, /*inverse=*/false);
        }
        const int64_t dc =
            static_cast<int64_t>(std::nearbyint(block[0] * inv_step));
        const uint64_t dc_delta = Zigzag64(dc - prev_dc);
        prev_dc = dc;
        const int dc_bits = BitLength(dc_delta);
        bits.WriteBits(static_cast<uint64_t>(dc_bits), 6);
        if (dc_bits > 0) bits.WriteBits(dc_delta, dc_bits);

        int max_bits = 0;
        for (int64_t i = 1; i < block_elems; ++i) {
          const int64_t q = static_cast<int64_t>(
              std::nearbyint(block[static_cast<size_t>(i)] * inv_step));
          zz[static_cast<size_t>(i)] = Zigzag64(q);
          max_bits =
              std::max(max_bits, BitLength(zz[static_cast<size_t>(i)]));
        }
        bits.WriteBits(static_cast<uint64_t>(max_bits), 6);
        if (max_bits > 0) {
          for (int64_t i = 1; i < block_elems; ++i) {
            bits.WriteBits(zz[static_cast<size_t>(i)], max_bits);
          }
        }
      }
    }
  }

  std::string blob = header.Finish();
  blob += bits.Finish();
  Compressed out;
  out.blob = std::move(blob);
  out.original_bytes = n * static_cast<int64_t>(sizeof(float));
  out.resolved_abs_tolerance = eb;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<Decompressed> ZfpCompressor::Decompress(const std::string& blob) {
  util::Stopwatch timer;
  util::ByteReader reader(blob);
  EF_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kMagic) return Status::Corruption("zfp: bad magic");
  EF_ASSIGN_OR_RETURN(auto shape, reader.GetShape());
  EF_RETURN_IF_ERROR(ValidateBlobShape(shape, blob.size()));
  EF_ASSIGN_OR_RETURN(double eb, reader.GetF64());
  EF_ASSIGN_OR_RETURN(uint8_t mode, reader.GetU8());
  const int64_t n = tensor::NumElements(shape);
  if (n <= 0) return Status::Corruption("zfp: empty shape");

  Tensor out(shape);
  if (mode == kModeRaw) {
    uint64_t raw_bytes = 0;
    if (!util::CheckedMul(static_cast<uint64_t>(n), sizeof(float),
                          &raw_bytes) ||
        reader.remaining() < raw_bytes) {
      return Status::Corruption("zfp: raw payload truncated");
    }
    EF_ASSIGN_OR_RETURN(auto rest, reader.Rest());
    std::memcpy(out.data(), rest.first,
                static_cast<size_t>(n) * sizeof(float));
    Decompressed result;
    result.data = std::move(out);
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
  if (mode != kModeBlocks) return Status::Corruption("zfp: bad mode");

  int64_t dims[3];
  CollapseTo3d(shape, &dims[0], &dims[1], &dims[2]);
  const int64_t bext[3] = {dims[0] > 1 ? 4 : 1, dims[1] > 1 ? 4 : 1,
                           dims[2] > 1 ? 4 : 1};
  int d = 0;
  for (int i = 0; i < 3; ++i) d += bext[i] == 4 ? 1 : 0;
  if (d == 0) d = 1;
  const double gain = std::pow(GetBasis().linf_row_gain, d);
  const double step = 2.0 * eb / gain * 0.98;

  EF_ASSIGN_OR_RETURN(auto rest, reader.Rest());
  util::BitReader bits(rest.first, rest.second);

  const int64_t nb[3] = {(dims[0] + bext[0] - 1) / bext[0],
                         (dims[1] + bext[1] - 1) / bext[1],
                         (dims[2] + bext[2] - 1) / bext[2]};
  const int64_t block_elems = bext[0] * bext[1] * bext[2];
  std::vector<double> block(static_cast<size_t>(block_elems));

  int64_t prev_dc = 0;
  for (int64_t b0 = 0; b0 < nb[0]; ++b0) {
    for (int64_t b1 = 0; b1 < nb[1]; ++b1) {
      for (int64_t b2 = 0; b2 < nb[2]; ++b2) {
        EF_ASSIGN_OR_RETURN(uint64_t dc_bits, bits.ReadBits(6));
        uint64_t dc_delta = 0;
        if (dc_bits > 0) {
          EF_ASSIGN_OR_RETURN(dc_delta,
                              bits.ReadBits(static_cast<int>(dc_bits)));
        }
        const int64_t dc = prev_dc + Unzigzag64(dc_delta);
        prev_dc = dc;
        block[0] = static_cast<double>(dc) * step;

        EF_ASSIGN_OR_RETURN(uint64_t max_bits, bits.ReadBits(6));
        const bool two_d =
            bext[0] == 1 && bext[1] == 4 && bext[2] == 4;
        if (max_bits == 0 && two_d) {
          // Zero-AC fast path: X = dc * t0 (x) t0 is constant = dc / 4.
          const double fill = block[0] * 0.25;
          const int64_t gy0 = b1 * 4, gx0 = b2 * 4;
          if (gy0 + 4 <= dims[1] && gx0 + 4 <= dims[2]) {
            for (int64_t y = 0; y < 4; ++y) {
              float* row = out.data() + (gy0 + y) * dims[2] + gx0;
              const float f = static_cast<float>(fill);
              row[0] = f;
              row[1] = f;
              row[2] = f;
              row[3] = f;
            }
          } else {
            for (int64_t y = 0; y < 4 && gy0 + y < dims[1]; ++y) {
              for (int64_t x = 0; x < 4 && gx0 + x < dims[2]; ++x) {
                out[(gy0 + y) * dims[2] + gx0 + x] =
                    static_cast<float>(fill);
              }
            }
          }
          continue;
        }
        if (max_bits == 0) {
          std::fill(block.begin() + 1, block.end(), 0.0);
        } else if (max_bits <= 57) {
          // Fast path: one bounds check per block, then branch-free
          // peek/skip per coefficient.
          const int nbits = static_cast<int>(max_bits);
          if (bits.BitsRemaining() <
              static_cast<size_t>(block_elems - 1) *
                  static_cast<size_t>(nbits)) {
            return Status::Corruption("zfp: coefficient stream truncated");
          }
          for (int64_t i = 1; i < block_elems; ++i) {
            const uint64_t zzv = bits.PeekBits(nbits);
            bits.SkipBits(nbits);
            block[static_cast<size_t>(i)] =
                static_cast<double>(Unzigzag64(zzv)) * step;
          }
        } else {
          for (int64_t i = 1; i < block_elems; ++i) {
            EF_ASSIGN_OR_RETURN(uint64_t zzv,
                                bits.ReadBits(static_cast<int>(max_bits)));
            block[static_cast<size_t>(i)] =
                static_cast<double>(Unzigzag64(zzv)) * step;
          }
        }
        if (two_d) {
          InverseTransform4x4(block.data());
          const int64_t gy0 = b1 * 4, gx0 = b2 * 4;
          if (gy0 + 4 <= dims[1] && gx0 + 4 <= dims[2]) {
            for (int64_t y = 0; y < 4; ++y) {
              float* row = out.data() + (gy0 + y) * dims[2] + gx0;
              const double* src = block.data() + y * 4;
              row[0] = static_cast<float>(src[0]);
              row[1] = static_cast<float>(src[1]);
              row[2] = static_cast<float>(src[2]);
              row[3] = static_cast<float>(src[3]);
            }
          } else {
            for (int64_t y = 0; y < 4 && gy0 + y < dims[1]; ++y) {
              for (int64_t x = 0; x < 4 && gx0 + x < dims[2]; ++x) {
                out[(gy0 + y) * dims[2] + gx0 + x] =
                    static_cast<float>(block[static_cast<size_t>(y * 4 + x)]);
              }
            }
          }
          continue;
        }
        for (int dim = 2; dim >= 0; --dim) {
          TransformDim(block.data(), bext, dim, /*inverse=*/true);
        }
        for (int64_t z = 0; z < bext[0]; ++z) {
          for (int64_t y = 0; y < bext[1]; ++y) {
            for (int64_t x = 0; x < bext[2]; ++x) {
              const int64_t gz = b0 * bext[0] + z;
              const int64_t gy = b1 * bext[1] + y;
              const int64_t gx = b2 * bext[2] + x;
              if (gz < dims[0] && gy < dims[1] && gx < dims[2]) {
                out[(gz * dims[1] + gy) * dims[2] + gx] = static_cast<float>(
                    block[static_cast<size_t>((z * bext[1] + y) * bext[2] +
                                              x)]);
              }
            }
          }
        }
      }
    }
  }

  Decompressed result;
  result.data = std::move(out);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace compress
}  // namespace errorflow
