#ifndef ERRORFLOW_COMPRESS_CODEC_HUFFMAN_H_
#define ERRORFLOW_COMPRESS_CODEC_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "compress/codec/codec.h"
#include "util/bitstream.h"
#include "util/result.h"

namespace errorflow {
namespace compress {

/// \brief Canonical Huffman codec over 32-bit symbols.
///
/// The entropy coder of the SZ-like and MGARD-like backends (and the
/// sub-streams the LZ77 decoder reads, see codec/lz77.h). The code table is
/// serialized as (symbol, code length) pairs and rebuilt canonically on
/// decode, so streams are self-describing. Single-symbol alphabets are
/// handled (length-1 codes), and an empty input encodes as a valid
/// zero-symbol stream (a bare zero-count table) — all-escape chunks in the
/// chunked path need no caller special-casing. Symbol values are arbitrary
/// uint32 (quantization codes are zigzag-encoded by callers first).
/// Equal-frequency ties in the tree break by symbol value, so the output
/// bytes depend on the symbols alone, on any platform.
class HuffmanCodec {
 public:
  /// Worst-case encoded size in bytes of `n_symbols` symbols. Table: a
  /// 32-bit count plus 38 bits per distinct symbol (<= n). Payload:
  /// Huffman is optimal among prefix codes, so it never exceeds a flat
  /// 32-bit code's 32n bits. Ceil(70n + 32 bits).
  static constexpr size_t CompressBound(size_t n_symbols) {
    return 9 * n_symbols + 16;
  }

  /// Writes `symbols` to `writer` preceded by the code table, reserving
  /// `CompressBound` bytes first so the writer never reallocates
  /// mid-stream. `stats`, when given, receives the table/payload bit
  /// split.
  static Status Encode(const std::vector<uint32_t>& symbols,
                       util::BitWriter* writer,
                       EncodeStats* stats = nullptr);

  /// Reads `count` symbols from `reader` (table first).
  static Result<std::vector<uint32_t>> Decode(util::BitReader* reader,
                                              uint64_t count);
};

/// Maps signed to unsigned so small magnitudes get small codes.
inline uint32_t ZigzagEncode(int32_t v) {
  return (static_cast<uint32_t>(v) << 1) ^
         static_cast<uint32_t>(v >> 31);
}

inline int32_t ZigzagDecode(uint32_t v) {
  return static_cast<int32_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_CODEC_HUFFMAN_H_
