#ifndef ERRORFLOW_TESTS_TESTING_CODEC_REFERENCE_H_
#define ERRORFLOW_TESTS_TESTING_CODEC_REFERENCE_H_

// Retained copies of the codec's per-symbol and per-element loops as they
// were before the windowed Huffman decode and the row-indexed Lorenzo
// loops: the canonical Huffman decoder that reads one symbol per table
// peek, and the SZ-like backend's predict+quantize and reconstruct loops
// with a bounds-checked neighbour read per Lorenzo term and libm
// nearbyint. The differential tests and bench_codec hold the fast paths to
// these, bit for bit and Status for Status.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "compress/codec/huffman.h"
#include "compress/sz.h"
#include "util/bitstream.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/status.h"

namespace errorflow {
namespace testing {

/// Decodes `count` symbols of one canonical Huffman stream (table first),
/// one symbol per step: a 12-bit table peek, else a scan of the long-code
/// length groups.
inline Result<std::vector<uint32_t>> ReferenceHuffmanDecode(
    util::BitReader* reader, uint64_t count) {
  struct SymbolCode {
    uint32_t symbol;
    int length;
    uint64_t code;
  };
  EF_ASSIGN_OR_RETURN(uint64_t table_size, reader->ReadBits(32));
  if (table_size > (1ull << 28)) {
    return Status::Corruption("Huffman: bad table size");
  }
  if (table_size == 0) {
    if (count != 0) {
      return Status::Corruption("Huffman: empty table with nonzero count");
    }
    return std::vector<uint32_t>{};
  }
  if (table_size > reader->BitsRemaining() / 38) {
    return Status::Corruption("Huffman: table larger than stream");
  }
  std::vector<SymbolCode> codes(static_cast<size_t>(table_size));
  for (auto& sc : codes) {
    EF_ASSIGN_OR_RETURN(uint64_t sym, reader->ReadBits(32));
    EF_ASSIGN_OR_RETURN(uint64_t len, reader->ReadBits(6));
    if (len == 0 || len > 60) {
      return Status::Corruption("Huffman: bad code length");
    }
    sc.symbol = static_cast<uint32_t>(sym);
    sc.length = static_cast<int>(len);
  }
  std::sort(codes.begin(), codes.end(),
            [](const SymbolCode& a, const SymbolCode& b) {
              if (a.length != b.length) return a.length < b.length;
              return a.symbol < b.symbol;
            });
  uint64_t next_code = 0;
  int prev_len = 0;
  for (SymbolCode& sc : codes) {
    next_code <<= (sc.length - prev_len);
    sc.code = next_code++;
    prev_len = sc.length;
  }
  for (const SymbolCode& sc : codes) {
    if (sc.length < 64 && (sc.code >> sc.length) != 0) {
      return Status::Corruption("Huffman: inconsistent code lengths");
    }
  }

  constexpr int kTableBits = 12;
  struct Entry {
    uint32_t symbol = 0;
    uint8_t length = 0;
  };
  std::vector<Entry> table(size_t{1} << kTableBits);
  for (const SymbolCode& sc : codes) {
    if (sc.length > kTableBits) continue;
    const int pad = kTableBits - sc.length;
    const uint64_t first = sc.code << pad;
    const uint64_t span = uint64_t{1} << pad;
    for (uint64_t i = 0; i < span; ++i) {
      table[static_cast<size_t>(first + i)] =
          Entry{sc.symbol, static_cast<uint8_t>(sc.length)};
    }
  }
  struct LengthGroup {
    int length;
    uint64_t first_code;
    uint64_t last_code;
    size_t first_index;
  };
  std::vector<LengthGroup> long_groups;
  for (size_t i = 0; i < codes.size();) {
    size_t j = i;
    while (j < codes.size() && codes[j].length == codes[i].length) ++j;
    if (codes[i].length > kTableBits) {
      long_groups.push_back(LengthGroup{codes[i].length, codes[i].code,
                                        codes[j - 1].code, i});
    }
    i = j;
  }
  constexpr int kMaxPeekBits = 57;
  const int peek_bits = std::min(codes.back().length, kMaxPeekBits);

  if (count > reader->BitsRemaining()) {
    return Status::Corruption("Huffman: symbol count exceeds stream");
  }
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    const Entry e = table[static_cast<size_t>(reader->PeekBits(kTableBits))];
    if (e.length != 0) {
      if (reader->BitsRemaining() < e.length) {
        return Status::Corruption("Huffman: stream exhausted");
      }
      reader->SkipBits(e.length);
      out.push_back(e.symbol);
      continue;
    }
    const uint64_t window = reader->PeekBits(peek_bits);
    const LengthGroup* match = nullptr;
    uint64_t prefix = 0;
    for (const LengthGroup& g : long_groups) {
      if (g.length <= peek_bits) {
        prefix = window >> (peek_bits - g.length);
      } else {
        util::BitReader rest = *reader;
        rest.SkipBits(peek_bits);
        prefix = (window << (g.length - peek_bits)) |
                 rest.PeekBits(g.length - peek_bits);
      }
      if (prefix >= g.first_code && prefix <= g.last_code) {
        match = &g;
        break;
      }
    }
    if (match == nullptr) {
      return Status::Corruption("Huffman: invalid code word");
    }
    if (reader->BitsRemaining() < static_cast<size_t>(match->length)) {
      return Status::Corruption("Huffman: stream exhausted");
    }
    reader->SkipBits(match->length);
    out.push_back(codes[match->first_index + (prefix - match->first_code)]
                      .symbol);
  }
  return out;
}

/// Order-1 3-D Lorenzo prediction of (s, i, j) from the reconstructed
/// field `r`, each out-of-range neighbour read as 0.
inline double ReferenceLorenzoPredict(const float* r, int64_t s, int64_t i,
                                      int64_t j, int64_t cols,
                                      int64_t plane) {
  auto at = [&](int64_t ds, int64_t di, int64_t dj) -> double {
    const int64_t ss = s - ds, ii = i - di, jj = j - dj;
    if (ss < 0 || ii < 0 || jj < 0) return 0.0;
    return r[ss * plane + ii * cols + jj];
  };
  return at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) - at(1, 1, 0) -
         at(1, 0, 1) - at(0, 1, 1) + at(1, 1, 1);
}

/// compress::LorenzoQuantize, element by element.
inline compress::LorenzoCodes ReferenceLorenzoQuantize(const float* data,
                                                       int64_t slices,
                                                       int64_t rows,
                                                       int64_t cols,
                                                       double eb) {
  constexpr int64_t kMaxCode = (1 << 20);
  const int64_t plane = rows * cols;
  std::vector<float> recon(static_cast<size_t>(slices * plane));
  compress::LorenzoCodes out;
  const double inv_bin = eb > 0.0 ? 1.0 / (2.0 * eb) : 0.0;
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        const int64_t idx = s * plane + i * cols + j;
        const double v = data[idx];
        bool predicted = false;
        if (eb > 0.0) {
          const double pred =
              ReferenceLorenzoPredict(recon.data(), s, i, j, cols, plane);
          const double q = std::nearbyint((v - pred) * inv_bin);
          if (std::fabs(q) <= static_cast<double>(kMaxCode)) {
            const float rec = static_cast<float>(pred + q * 2.0 * eb);
            if (std::fabs(static_cast<double>(rec) - v) <= eb) {
              recon[static_cast<size_t>(idx)] = rec;
              out.codes.push_back(compress::ZigzagEncode(
                  static_cast<int32_t>(std::llrint(q))));
              predicted = true;
            }
          }
        }
        if (!predicted) {
          // The input float itself: float(v) would quiet a signalling NaN
          // wherever the compiler does not fold the round trip away (-O0).
          recon[static_cast<size_t>(idx)] = data[idx];
          out.escape_indices.push_back(idx);
          out.raw_values.push_back(data[idx]);
        }
      }
    }
  }
  return out;
}

/// compress::LorenzoReconstruct, element by element.
inline Status ReferenceLorenzoReconstruct(const std::vector<uint32_t>& codes,
                                          const uint8_t* unpred,
                                          const char* raw, uint64_t n_raw,
                                          int64_t slices, int64_t rows,
                                          int64_t cols, double eb,
                                          float* out) {
  const int64_t plane = rows * cols;
  size_t raw_pos = 0, code_pos = 0;
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        const int64_t idx = s * plane + i * cols + j;
        if (unpred[idx] != 0) {
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
          const int32_t q = compress::ZigzagDecode(codes[code_pos++]);
          const double pred =
              ReferenceLorenzoPredict(out, s, i, j, cols, plane);
          out[idx] = static_cast<float>(pred + q * 2.0 * eb);
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace testing
}  // namespace errorflow

#endif  // ERRORFLOW_TESTS_TESTING_CODEC_REFERENCE_H_
