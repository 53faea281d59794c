#ifndef ERRORFLOW_COMPRESS_CODEC_LZ77_H_
#define ERRORFLOW_COMPRESS_CODEC_LZ77_H_

#include <cstdint>
#include <vector>

#include "compress/codec/codec.h"
#include "util/bitstream.h"
#include "util/bytes.h"
#include "util/result.h"

namespace errorflow {
namespace compress {

/// \brief Decoder of the DEFLATE-class entropy stage (codec byte 1): an
/// LZ77 match layer over the 32-bit symbol stream, with literals, match
/// lengths, and match distances each entropy-coded by the canonical
/// Huffman stage.
///
/// Decode-only: every new stream is plain Huffman (codec byte 0). Stored
/// streams written with this codec decode bit-exactly; the ones the tests
/// decode are under tests/compress/testdata.
///
/// Token structure follows DEFLATE's no-flag-bits discipline: the stream
/// is `n_match` pairs of (run of literals, match) plus a trailing literal
/// run, so token kinds cost a few *entropy-coded* bits per match instead
/// of one raw bit per token.
///
/// Bitstream layout (all through util::BitWriter, MSB-first):
///
///     n_literals  : 32 bits
///     n_matches   : 32 bits
///     ctx counts  : 13 x 32 bits, per-context literal counts (must sum
///                   to n_literals)
///     literals    : 13 HuffmanCodec streams, one per context class
///     run buckets : HuffmanCodec stream of n_matches + 1 literal-run
///                   bucket codes (literals before each match, then the
///                   trailing run)
///     run extras  : per run, `bucket` raw bits
///     len buckets : HuffmanCodec stream of length bucket codes
///     len extras  : per match, `bucket` raw bits
///     dst buckets : HuffmanCodec stream of distance bucket codes
///     dst extras  : per match, `bucket` raw bits
///
/// Literals are context-modeled: each literal belongs to one of thirteen
/// classes keyed on the output symbol preceding it (identity for symbols
/// below 8, bit-width classes above), and each class has its own Huffman
/// table.
///
/// The distance alphabet carries one extra symbol (21): "same distance
/// as the previous match", with no extra bits.
///
/// A value v >= 0 is bucketed as b = bit_width(v + 1) - 1 with b extra
/// bits storing v + 1 - 2^b (runs store v = run length, lengths
/// v = length - kMinMatch, distances v = distance - 1). A zero-token
/// stream (`n_literals == n_matches == 0`) ends after the two counts, and
/// sub-streams with no symbols are valid zero-symbol Huffman streams.
class Lz77HuffmanCodec final : public EntropyCodec {
 public:
  /// Shortest match length a stream can code (length bucket 0).
  static constexpr size_t kMinMatch = 3;
  /// Longest single match. Caps `count * kMaxMatch` in the decoder's
  /// pre-allocation plausibility bound.
  static constexpr size_t kMaxMatch = 4096;

  CodecId id() const override { return CodecId::kLz77Huffman; }
  const char* name() const override { return "lz77"; }

  Result<std::vector<uint32_t>> Decode(
      util::BitReader* reader, uint64_t count,
      const util::DecodeLimits& limits = util::DecodeLimits::Default())
      const override;
};

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_CODEC_LZ77_H_
