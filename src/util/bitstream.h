#ifndef ERRORFLOW_UTIL_BITSTREAM_H_
#define ERRORFLOW_UTIL_BITSTREAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "util/macros.h"
#include "util/result.h"
#include "util/status.h"

namespace errorflow {
namespace util {

/// \brief Append-only MSB-first bit writer backing the compressed formats.
///
/// All compressor bitstreams in `src/compress` are produced through this
/// writer so that the on-wire bit order is uniform across codecs. Bits
/// collect in a 64-bit accumulator and leave it as whole 32-bit big-endian
/// words, which reach the string 64 bytes at a time: the common write is
/// a shift, an or and a compare, with no call.
class BitWriter {
 public:
  /// Appends the `nbits` low-order bits of `value`, most significant first.
  /// `nbits` must be in [0, 64].
  void WriteBits(uint64_t value, int nbits) {
    EF_CHECK(nbits >= 0 && nbits <= 64);
    if (nbits > 32) {
      Accumulate(value >> 32, nbits - 32);
      nbits = 32;
    }
    Accumulate(value, nbits);
  }

  /// One code for WriteCodes: the `length` low-order bits of `bits`.
  struct Code {
    uint64_t bits;
    int length;
  };

  /// Appends `count` codes, the i-th being `code_at(i)`: a Code of length
  /// 1 to 56 with no bit set at or above its length. `total_bits` is the
  /// sum of their lengths. Writes the bits a WriteBits call per code
  /// would; the bits stay in a register and leave it in 8-byte stores, so
  /// a code costs a few operations and no branch.
  template <typename CodeAt>
  void WriteCodes(size_t count, size_t total_bits, CodeAt code_at) {
    FlushWords();
    // Whole bytes leave the accumulator, so fewer than 8 bits are pending.
    while (pending_bits_ >= 8) {
      pending_bits_ -= 8;
      bytes_.push_back(static_cast<char>(acc_ >> pending_bits_));
    }
    const size_t start = bytes_.size();
    // Every byte the codes complete, plus the 8-byte store's overhang.
    bytes_.resize(start + (static_cast<size_t>(pending_bits_) + total_bits) /
                              8 +
                  8);
    char* out = bytes_.data() + start;
    // The last `fill` (< 8 between codes) bits written sit right-aligned
    // in `acc`; each code shifts in below them, and the whole bytes leave
    // in one 8-byte store. `acc` and `fill` each carry a two-operation
    // chain from code to code.
    uint64_t acc = acc_;
    int fill = pending_bits_;
    for (size_t i = 0; i < count; ++i) {
      const Code c = code_at(i);
      acc = (acc << c.length) | c.bits;
      fill += c.length;
      uint64_t be = acc << (64 - fill);
      if constexpr (std::endian::native == std::endian::little) {
        be = __builtin_bswap64(be);
      }
      std::memcpy(out, &be, sizeof(be));
      out += fill >> 3;
      fill &= 7;
    }
    bytes_.resize(static_cast<size_t>(out - bytes_.data()));
    acc_ = acc;
    pending_bits_ = fill;
  }

  /// Pads to a byte boundary with zero bits (idempotent on aligned streams).
  void AlignToByte() {
    if (pending_bits_ % 8 != 0) Accumulate(0, 8 - pending_bits_ % 8);
  }

  /// Grows the underlying buffer's capacity to hold `additional_bytes`
  /// more output beyond the `bit_count() / 8` whole bytes written so far.
  /// Codecs call this with their `CompressBound` before encoding, so the
  /// append loop performs zero reallocations on the hot path.
  void Reserve(size_t additional_bytes) {
    bytes_.reserve(bit_count() / 8 + additional_bytes);
  }

  /// Current capacity of the underlying buffer, in bytes. Exposed so
  /// tests can pin the zero-realloc contract (capacity unchanged across
  /// an Encode that was preceded by a sufficient Reserve).
  size_t capacity_bytes() const { return bytes_.capacity(); }

  /// Number of bits written so far.
  size_t bit_count() const {
    return bytes_.size() * 8 + static_cast<size_t>(32 * num_words_) +
           static_cast<size_t>(pending_bits_);
  }

  /// Finalizes (byte-aligns) and returns the underlying buffer.
  std::string Finish();

 private:
  /// Appends the `nbits` (<= 32) low-order bits of `value`.
  void Accumulate(uint64_t value, int nbits) {
    // Fewer than 32 bits wait in the accumulator, so 32 more fit.
    acc_ = (acc_ << nbits) | (value & ((uint64_t{1} << nbits) - 1));
    pending_bits_ += nbits;
    if (pending_bits_ >= 32) {
      pending_bits_ -= 32;
      uint32_t word = static_cast<uint32_t>(acc_ >> pending_bits_);
      if constexpr (std::endian::native == std::endian::little) {
        word = __builtin_bswap32(word);
      }
      words_[num_words_++] = word;
      if (num_words_ == kWords) FlushWords();
    }
  }

  /// Appends the staged words to `bytes_`.
  void FlushWords();

  static constexpr int kWords = 16;

  /// Written bits, in order: `bytes_`, then `num_words_` whole words
  /// staged in `words_` (big-endian), then the last `pending_bits_` (< 32)
  /// bits, right-aligned in the low bits of `acc_` (the bits above them
  /// are stale).
  std::string bytes_;
  uint32_t words_[kWords] = {};
  int num_words_ = 0;
  uint64_t acc_ = 0;
  int pending_bits_ = 0;
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
  uint64_t PeekBits(int nbits) const {
    EF_CHECK(nbits >= 0 && nbits <= 57);
    // Eight bytes from the current byte, MSB-first, less the `off`
    // already-consumed bits: at least 57 unread bits.
    const size_t byte = bit_pos_ >> 3;
    const int off = static_cast<int>(bit_pos_ & 7);
    const uint64_t window = (byte + 8 <= total_bits_ >> 3
                                 ? LoadBigEndian64(data_ + byte)
                                 : LoadTailPadded(byte))
                            << off;
    return nbits == 0 ? 0 : window >> (64 - nbits);
  }

  /// Advances the cursor by `nbits`, clamped to the end of the stream.
  void SkipBits(int nbits) {
    if (nbits <= 0) return;  // A negative skip would wrap the cursor forward.
    bit_pos_ = std::min(total_bits_, bit_pos_ + static_cast<size_t>(nbits));
  }

  /// Number of bits remaining.
  size_t BitsRemaining() const { return total_bits_ - bit_pos_; }

 private:
  /// The eight bytes at `p` as one MSB-first word.
  static uint64_t LoadBigEndian64(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    return v;
  }

  /// As LoadBigEndian64 at `byte`, with the bytes past the end read as 0.
  uint64_t LoadTailPadded(size_t byte) const;

  const uint8_t* data_;
  size_t total_bits_;
  size_t bit_pos_ = 0;
};

}  // namespace util
}  // namespace errorflow

#endif  // ERRORFLOW_UTIL_BITSTREAM_H_
