#include "compress/sz.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "compress/bound_util.h"
#include "compress/codec/huffman.h"
#include "util/bytes.h"
#include "util/timer.h"

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

}  // namespace

LorenzoCodes LorenzoQuantize(const float* data, int64_t slices,
                             int64_t rows, int64_t cols, double eb) {
  const int64_t n = slices * rows * cols;
  HaloField recon(slices, rows, cols);
  // Each element's code, or kEscaped, in element order; compacted below.
  constexpr uint32_t kEscaped = UINT32_MAX;
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
  size_t n_codes = 0;
  int64_t idx = 0;
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t i = 0; i < rows; ++i) {
      const float* row = recon.at(s, i, 0);
      for (int64_t j = 0; j < cols; ++j, ++idx) {
        if (code_at[idx] != kEscaped) {
          code_at[n_codes++] = code_at[idx];
        } else {
          // The raw value is the stored float(v) itself.
          out.escape_indices.push_back(idx);
          out.raw_values.push_back(row[j]);
        }
      }
    }
  }
  out.codes.resize(n_codes);
  return out;
}

Status LorenzoReconstruct(const std::vector<uint32_t>& codes,
                          const uint8_t* unpred, const char* raw,
                          uint64_t n_raw, int64_t slices, int64_t rows,
                          int64_t cols, double eb, float* out) {
  // First the escapes' floats and the other elements' codes, in element
  // order (a code parked in its element's slot as int32 bits), so a
  // stream that runs short fails where it did element by element...
  HaloField field(slices, rows, cols);
  size_t raw_pos = 0, code_pos = 0;
  const uint8_t* flag = unpred;
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t i = 0; i < rows; ++i) {
      float* p = field.at(s, i, 0);
      for (int64_t j = 0; j < cols; ++j, ++flag) {
        if (*flag != 0) {
          if (raw_pos >= n_raw) {
            return Status::Corruption("sz: raw values exhausted");
          }
          std::memcpy(&p[j], raw + raw_pos * sizeof(float), sizeof(float));
          ++raw_pos;
        } else {
          if (code_pos >= codes.size()) {
            return Status::Corruption("sz: codes exhausted");
          }
          const int32_t q = ZigzagDecode(codes[code_pos++]);
          std::memcpy(&p[j], &q, sizeof(q));
        }
      }
    }
  }
  // ...then the prediction chains, which read only elements visited
  // before the one they write.
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
  header.PutU8(static_cast<uint8_t>(codec_));
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
  const EntropyCodec* codec = GetCodec(codec_);
  util::BitWriter bits;
  EncodeStats stats;
  EF_RETURN_IF_ERROR(codec->Encode(quantized.codes, &bits, &stats));
  RecordCodecEncode(*codec, quantized.codes.size(), stats);
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
