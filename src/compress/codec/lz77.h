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

/// \brief DEFLATE-class entropy backend: an LZ77 match layer over the
/// 32-bit symbol stream, with literals, match lengths, and match
/// distances each entropy-coded by the canonical Huffman stage.
///
/// Quantization-code streams from the SZ-like and MGARD-like predictors
/// are dominated by repeated *patterns* (zero runs broken by periodic
/// structure, tiled residuals), not just a skewed marginal distribution —
/// exactly what a match layer captures and a memoryless Huffman code
/// cannot. The matcher is a hash-chain over 3-symbol windows with
/// greedy-plus-one-step-lazy parsing, and match acceptance is gated by a
/// cost model built from the literal distribution, so streams whose
/// literals are already near-free (e.g. almost-all-zero codes at ~1
/// bit/symbol) never regress below plain Huffman by more than the
/// constant framing overhead.
///
/// Token structure follows DEFLATE's no-flag-bits discipline: the stream
/// is `n_match` pairs of (run of literals, match) plus a trailing literal
/// run, so token kinds cost a few *entropy-coded* bits per match instead
/// of one raw bit per token — on high-entropy all-literal streams a flag
/// vector would tax every symbol a full bit and erase the match gains.
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
/// below 8, bit-width classes above — computable by both sides), and
/// each class gets its own Huffman table. Order-1 conditional entropy of
/// quantization-code streams runs 20-40% below the marginal, which a
/// single memoryless table cannot reach.
///
/// The distance alphabet carries one extra symbol (21): "same distance
/// as the previous match", with no extra bits. Tiled scientific fields
/// repeat the row stride as a match distance constantly, and pricing it
/// at one entropy-coded symbol makes short stride-matches profitable.
///
/// A value v >= 0 is bucketed as b = bit_width(v + 1) - 1 with b extra
/// bits storing v + 1 - 2^b (runs store v = run length, lengths
/// v = length - kMinMatch, distances v = distance - 1). A zero-token
/// stream (`n_literals == n_matches == 0`) ends after the two counts:
/// the empty input encodes in 64 bits, and sub-streams with no symbols
/// are valid zero-symbol Huffman streams, so an all-literal or all-match
/// token list needs no special casing on either side.
class Lz77HuffmanCodec final : public EntropyCodec {
 public:
  /// Shortest replaceable pattern: below 3 symbols a match's run +
  /// length + distance framing always loses to literals.
  static constexpr size_t kMinMatch = 3;
  /// Longest single match. Caps `count * kMaxMatch` in the decoder's
  /// pre-allocation plausibility bound, and keeps length extra bits <= 12.
  static constexpr size_t kMaxMatch = 4096;
  /// Search window: the encoder's matches reach at most 2^15 symbols back.
  /// Decoding accepts any distance the *stream* justifies up to 2^20,
  /// independent of this window.
  static constexpr int kWindowBits = 15;

  CodecId id() const override { return CodecId::kLz77Huffman; }
  const char* name() const override { return "lz77"; }

  /// Worst case is the all-literal parse: ~70 bits/symbol (flat Huffman
  /// payload + table growth) plus constant framing (the three bucket
  /// alphabets are constant-sized), and matches only ever replace literal
  /// spans the cost model priced higher.
  size_t CompressBound(size_t n_symbols) const override;

  Status Encode(const std::vector<uint32_t>& symbols,
                util::BitWriter* writer,
                EncodeStats* stats = nullptr) const override;

  Result<std::vector<uint32_t>> Decode(
      util::BitReader* reader, uint64_t count,
      const util::DecodeLimits& limits = util::DecodeLimits::Default())
      const override;
};

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_CODEC_LZ77_H_
