#ifndef ERRORFLOW_UTIL_BITSTREAM_H_
#define ERRORFLOW_UTIL_BITSTREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace errorflow {
namespace util {

/// \brief Append-only MSB-first bit writer backing the compressed formats.
///
/// All compressor bitstreams in `src/compress` are produced through this
/// writer so that the on-wire bit order is uniform across codecs.
class BitWriter {
 public:
  /// Appends the `nbits` low-order bits of `value`, most significant first.
  /// `nbits` must be in [0, 64].
  void WriteBits(uint64_t value, int nbits);

  /// Pads to a byte boundary with zero bits (idempotent on aligned streams).
  void AlignToByte();

  /// Grows the underlying buffer's capacity to hold `additional_bytes`
  /// more output beyond what has been written so far. Codecs call this
  /// with their `CompressBound` before encoding, so the append loop
  /// performs zero reallocations on the hot path.
  void Reserve(size_t additional_bytes) {
    bytes_.reserve(bytes_.size() + additional_bytes);
  }

  /// Current capacity of the underlying buffer, in bytes. Exposed so
  /// tests can pin the zero-realloc contract (capacity unchanged across
  /// an Encode that was preceded by a sufficient Reserve).
  size_t capacity_bytes() const { return bytes_.capacity(); }

  /// Number of bits written so far.
  size_t bit_count() const { return bit_count_; }

  /// Finalizes (byte-aligns) and returns the underlying buffer.
  std::string Finish();

 private:
  std::string bytes_;
  uint8_t current_ = 0;
  int bits_in_current_ = 0;
  size_t bit_count_ = 0;
};

/// \brief MSB-first bit reader over a byte buffer.
class BitReader {
 public:
  /// Wraps `data`; the reader does not own the memory.
  BitReader(const void* data, size_t size_bytes);

  /// Reads `nbits` (<= 64) bits into the low-order bits of the result.
  /// Returns OutOfRange if the stream is exhausted and Corruption when
  /// `nbits` is outside [0, 64] (widths may come from untrusted headers).
  Result<uint64_t> ReadBits(int nbits);

  /// Returns the next `nbits` (<= 57) bits without consuming them,
  /// zero-padded past the end of the stream. Never fails.
  uint64_t PeekBits(int nbits) const;

  /// Advances the cursor by `nbits`, clamped to the end of the stream.
  void SkipBits(int nbits);

  /// Number of bits remaining.
  size_t BitsRemaining() const { return total_bits_ - bit_pos_; }

 private:
  const uint8_t* data_;
  size_t total_bits_;
  size_t bit_pos_ = 0;
};

}  // namespace util
}  // namespace errorflow

#endif  // ERRORFLOW_UTIL_BITSTREAM_H_
