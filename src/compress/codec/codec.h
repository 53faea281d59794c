#ifndef ERRORFLOW_COMPRESS_CODEC_CODEC_H_
#define ERRORFLOW_COMPRESS_CODEC_CODEC_H_

#include <cstdint>
#include <vector>

#include "util/bitstream.h"
#include "util/bytes.h"
#include "util/result.h"

namespace errorflow {
namespace compress {

/// \brief Wire identifier of an entropy codec. The value is written as the
/// codec-negotiation byte into every versioned compressor header (EZS2 /
/// EMG3 and the per-chunk blobs of the parallel container), so it is part
/// of the on-disk format: never renumber, only append.
enum class CodecId : uint8_t {
  /// Plain canonical Huffman over the symbol stream (the legacy stage;
  /// codec byte 0, and the implicit codec of pre-codec-byte streams).
  kHuffman = 0,
  /// LZ77 match layer over the symbol stream, literals/lengths/distances
  /// entropy-coded with canonical Huffman. Decode-only: stored streams
  /// carrying this byte still decode, and no encoder writes it.
  kLz77Huffman = 1,
};

/// Per-call encoder telemetry, for ratio accounting and metrics. All
/// fields are in bits of output unless noted.
struct EncodeStats {
  /// Bits spent on code tables and stream framing (counts, flags) — the
  /// fixed, per-stream overhead that does NOT scale with symbol count
  /// (exported as the encode_overhead_bits counter).
  uint64_t overhead_bits = 0;
  /// Bits spent on the entropy-coded payload proper.
  uint64_t payload_bits = 0;
};

/// \brief Decode side of the entropy-coding stage shared by the SZ-like
/// and MGARD-like backends, selected by the stream's codec byte.
///
/// `Decode` reads exactly one stream back, producing `count` symbols.
/// `count` is untrusted: implementations must reject any count the
/// remaining payload cannot plausibly justify *before* allocating, and
/// keep every allocation under `limits`. Implementations are stateless
/// and thread-safe; the singletons returned by `GetCodec` may be shared
/// freely. New streams are written by `HuffmanCodec::Encode`.
class EntropyCodec {
 public:
  virtual ~EntropyCodec() = default;

  virtual CodecId id() const = 0;
  /// Canonical lowercase name: "huffman", "lz77".
  virtual const char* name() const = 0;

  virtual Result<std::vector<uint32_t>> Decode(
      util::BitReader* reader, uint64_t count,
      const util::DecodeLimits& limits = util::DecodeLimits::Default())
      const = 0;
};

/// Singleton codec for `id`; never nullptr for a valid CodecId.
const EntropyCodec* GetCodec(CodecId id);

/// Maps an untrusted codec-negotiation byte to a codec, or Corruption.
Result<const EntropyCodec*> CodecFromByte(uint8_t byte);

/// The codec every new stream is written with. Kept as a named constant
/// for the two-argument `MakeCompressor` (compressor.h).
constexpr CodecId kDefaultCodec = CodecId::kHuffman;

/// Records the per-codec encode/decode counters
/// (`errorflow.compress.codec.*`). Called by the compressor backends after
/// a successful entropy-stage call; split out so the codecs themselves
/// stay dependency-free. Only Huffman encodes.
void RecordCodecEncode(const EntropyCodec& codec, uint64_t symbols,
                       const EncodeStats& stats);
void RecordCodecDecode(const EntropyCodec& codec, uint64_t symbols);

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_CODEC_CODEC_H_
