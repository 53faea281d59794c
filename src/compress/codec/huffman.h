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
/// Shared entropy-coding stage of the SZ-like and MGARD-like backends (and
/// the sub-streams of the LZ77 codec, see codec/lz77.h). The code table is
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
  /// Writes `symbols` to `writer` preceded by the code table. `stats`,
  /// when given, receives the table/payload bit split.
  static Status Encode(const std::vector<uint32_t>& symbols,
                       util::BitWriter* writer,
                       EncodeStats* stats = nullptr);

  /// Reads `count` symbols from `reader` (table first).
  static Result<std::vector<uint32_t>> Decode(util::BitReader* reader,
                                              uint64_t count);
};

/// Sorts a copy of `symbols` to find its distinct values, in ascending
/// order (`alphabet`), and for each position the index of its value in
/// `alphabet` (`ranks`). No hashing, so everything built from the result
/// is independent of hash-table iteration order. Requires fewer than 2^32
/// symbols.
void RankSymbols(const std::vector<uint32_t>& symbols,
                 std::vector<uint32_t>* alphabet,
                 std::vector<uint32_t>* ranks);

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
