#include "compress/sz.h"

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

// Order-1 Lorenzo prediction from the *reconstructed* field. Out-of-range
// neighbors read as 0, matching SZ's boundary handling.
inline double Predict(const float* r, int64_t s, int64_t i, int64_t j,
                      int64_t cols, int64_t plane) {
  auto at = [&](int64_t ds, int64_t di, int64_t dj) -> double {
    const int64_t ss = s - ds, ii = i - di, jj = j - dj;
    if (ss < 0 || ii < 0 || jj < 0) return 0.0;
    return r[ss * plane + ii * cols + jj];
  };
  // 3-D Lorenzo: f(s-1,i,j)+f(s,i-1,j)+f(s,i,j-1)-f(s-1,i-1,j)
  //              -f(s-1,i,j-1)-f(s,i-1,j-1)+f(s-1,i-1,j-1).
  return at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) - at(1, 1, 0) -
         at(1, 0, 1) - at(0, 1, 1) + at(1, 1, 1);
}

}  // namespace

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
  const int64_t plane = rows * cols;

  std::vector<float> recon(static_cast<size_t>(n));
  std::vector<uint32_t> codes;
  codes.reserve(static_cast<size_t>(n));
  std::vector<int64_t> escape_indices;
  std::vector<float> raw_values;

  const double inv_bin = eb > 0.0 ? 1.0 / (2.0 * eb) : 0.0;
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        const int64_t idx = s * plane + i * cols + j;
        const double v = data[idx];
        bool predicted = false;
        if (eb > 0.0) {
          const double pred = Predict(recon.data(), s, i, j, cols, plane);
          const double q = std::nearbyint((v - pred) * inv_bin);
          if (std::fabs(q) <= static_cast<double>(kMaxCode)) {
            // Validate the bound on the value as actually stored (float),
            // not the double intermediate, so FP32 rounding cannot break
            // the guarantee.
            const float rec = static_cast<float>(pred + q * 2.0 * eb);
            if (std::fabs(static_cast<double>(rec) - v) <= eb) {
              recon[static_cast<size_t>(idx)] = rec;
              codes.push_back(
                  ZigzagEncode(static_cast<int32_t>(std::llrint(q))));
              predicted = true;
            }
          }
        }
        if (!predicted) {
          recon[static_cast<size_t>(idx)] = static_cast<float>(v);
          escape_indices.push_back(idx);
          raw_values.push_back(static_cast<float>(v));
        }
      }
    }
  }

  util::ByteWriter header;
  header.PutU32(kMagicV2);
  header.PutU8(static_cast<uint8_t>(codec_));
  header.PutShape(data.shape());
  header.PutF64(eb);
  header.PutU64(raw_values.size());
  header.PutU64(codes.size());

  // Escape locations: sparse delta-varints when rare, bitmap otherwise.
  const size_t bitmap_bytes = (static_cast<size_t>(n) + 7) / 8;
  if (escape_indices.size() * 4 <= bitmap_bytes) {
    header.PutU8(kEscSparse);
    int64_t prev = -1;
    for (int64_t idx : escape_indices) {
      header.PutVarint64(static_cast<uint64_t>(idx - prev - 1));
      prev = idx;
    }
  } else {
    header.PutU8(kEscBitmap);
    std::vector<uint8_t> bitmap(bitmap_bytes, 0);
    for (int64_t idx : escape_indices) {
      bitmap[static_cast<size_t>(idx) / 8] |=
          static_cast<uint8_t>(1u << (idx % 8));
    }
    header.Raw(bitmap.data(), bitmap.size());
  }
  header.Raw(raw_values.data(), raw_values.size() * sizeof(float));

  // The entropy stage always runs — an empty code vector (every element
  // escaped) encodes as a valid zero-symbol stream.
  const EntropyCodec* codec = GetCodec(codec_);
  util::BitWriter bits;
  EncodeStats stats;
  EF_RETURN_IF_ERROR(codec->Encode(codes, &bits, &stats));
  RecordCodecEncode(*codec, codes.size(), stats);
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
  const int64_t plane = rows * cols;

  Tensor out(shape);
  size_t raw_pos = 0, code_pos = 0;
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        const int64_t idx = s * plane + i * cols + j;
        if (unpred[static_cast<size_t>(idx)] != 0) {
          if (raw_pos >= n_raw) {
            return Status::Corruption("sz: raw values exhausted");
          }
          std::memcpy(&out[idx], raw + raw_pos * sizeof(float),
                      sizeof(float));
          ++raw_pos;
        } else {
          if (code_pos >= codes.size()) {
            return Status::Corruption("sz: codes exhausted");
          }
          const int32_t q = ZigzagDecode(codes[code_pos++]);
          const double pred = Predict(out.data(), s, i, j, cols, plane);
          out[idx] = static_cast<float>(pred + q * 2.0 * eb);
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
