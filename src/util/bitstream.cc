#include "util/bitstream.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/macros.h"

namespace errorflow {
namespace util {

namespace {

/// Byte-swaps `v` on little-endian hosts, so its most significant byte
/// comes first in memory (and, read back, so the first stream byte lands
/// in the most significant position).
inline uint64_t ToBigEndian(uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  }
  return v;
}

/// The eight bytes at `p` as one MSB-first word.
inline uint64_t LoadBigEndian64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return ToBigEndian(v);
}

}  // namespace

void BitWriter::WriteBits(uint64_t value, int nbits) {
  EF_CHECK(nbits >= 0 && nbits <= 64);
  if (nbits > 56) {
    // Up to 7 pending bits plus 57..64 new ones overflow one 64-bit
    // word: emit the high part first, then fall through with the low 32.
    WriteBits(value >> 32, nbits - 32);
    nbits = 32;
  }
  if (nbits == 0) return;
  bit_count_ += static_cast<size_t>(nbits);
  // The pending bits followed by the new ones, right-aligned in one word
  // (at most 7 + 56 = 63 bits); every whole byte in it is emitted at once.
  const int total = bits_in_current_ + nbits;
  const uint64_t acc = (uint64_t{current_} << nbits) |
                       (value & ((uint64_t{1} << nbits) - 1));
  const int whole = total >> 3;
  bits_in_current_ = total & 7;
  current_ = static_cast<uint8_t>(acc & ((1u << bits_in_current_) - 1));
  if (whole == 0) return;
  const uint64_t be = ToBigEndian((acc >> bits_in_current_)
                                  << (64 - 8 * whole));
  bytes_.append(reinterpret_cast<const char*>(&be),
                static_cast<size_t>(whole));
}

void BitWriter::AlignToByte() {
  if (bits_in_current_ != 0) WriteBits(0, 8 - bits_in_current_);
}

std::string BitWriter::Finish() {
  AlignToByte();
  return std::move(bytes_);
}

BitReader::BitReader(const void* data, size_t size_bytes)
    : data_(static_cast<const uint8_t*>(data)), total_bits_(size_bytes * 8) {}

Result<uint64_t> BitReader::ReadBits(int nbits) {
  // Decoders hand widths derived from untrusted headers here; an
  // out-of-range width is data corruption, not a programmer error, so it
  // must surface as Status rather than an abort.
  if (nbits < 0 || nbits > 64) {
    return Status::Corruption("BitReader: bit width out of range");
  }
  if (BitsRemaining() < static_cast<size_t>(nbits)) {
    return Status::OutOfRange("BitReader: stream exhausted");
  }
  const size_t byte = bit_pos_ >> 3;
  const int off = static_cast<int>(bit_pos_ & 7);
  if (nbits > 0 && off + nbits <= 64 && byte + 8 <= total_bits_ >> 3) {
    const uint64_t value =
        (LoadBigEndian64(data_ + byte) << off) >> (64 - nbits);
    bit_pos_ += static_cast<size_t>(nbits);
    return value;
  }
  // Tail: fewer than eight bytes left, or a read straddling nine bytes.
  uint64_t value = 0;
  int left = nbits;
  while (left > 0) {
    const int avail = 8 - static_cast<int>(bit_pos_ & 7);
    const int take = std::min(avail, left);
    const uint8_t chunk = static_cast<uint8_t>(
        (data_[bit_pos_ >> 3] >> (avail - take)) & ((1u << take) - 1u));
    value = (value << take) | chunk;
    bit_pos_ += static_cast<size_t>(take);
    left -= take;
  }
  return value;
}

uint64_t BitReader::PeekBits(int nbits) const {
  EF_CHECK(nbits >= 0 && nbits <= 57);
  // Load 8 bytes starting at the current byte, MSB-first; near the end
  // of the stream, byte by byte with zero padding.
  const size_t byte = bit_pos_ >> 3;
  const int off = static_cast<int>(bit_pos_ & 7);
  const size_t total_bytes = total_bits_ >> 3;
  uint64_t window = 0;
  if (byte + 8 <= total_bytes) {
    window = LoadBigEndian64(data_ + byte);
  } else {
    for (int i = 0; i < 8; ++i) {
      const size_t b = byte + static_cast<size_t>(i);
      window = (window << 8) | (b < total_bytes ? data_[b] : 0u);
    }
  }
  // Drop the `off` already-consumed bits, keep the top nbits.
  window <<= off;
  return nbits == 0 ? 0 : window >> (64 - nbits);
}

void BitReader::SkipBits(int nbits) {
  if (nbits <= 0) return;  // A negative skip would wrap the cursor forward.
  bit_pos_ = std::min(total_bits_, bit_pos_ + static_cast<size_t>(nbits));
}

}  // namespace util
}  // namespace errorflow
