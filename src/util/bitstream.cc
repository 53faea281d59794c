#include "util/bitstream.h"

namespace errorflow {
namespace util {

void BitWriter::FlushWords() {
  bytes_.append(reinterpret_cast<const char*>(words_),
                sizeof(words_[0]) * static_cast<size_t>(num_words_));
  num_words_ = 0;
}

std::string BitWriter::Finish() {
  AlignToByte();
  FlushWords();
  // The whole bytes still in the accumulator, most significant first.
  for (int left = pending_bits_; left > 0; left -= 8) {
    bytes_.push_back(static_cast<char>(acc_ >> (left - 8)));
  }
  pending_bits_ = 0;
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

uint64_t BitReader::LoadTailPadded(size_t byte) const {
  const size_t total_bytes = total_bits_ >> 3;
  uint64_t window = 0;
  for (size_t b = byte; b < byte + 8; ++b) {
    window = (window << 8) | (b < total_bytes ? data_[b] : 0u);
  }
  return window;
}

}  // namespace util
}  // namespace errorflow
