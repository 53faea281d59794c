#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/bitstream.h"
#include "util/random.h"

namespace errorflow {
namespace util {
namespace {

TEST(PeekBitsTest, PeekDoesNotConsume) {
  BitWriter w;
  w.WriteBits(0xABC, 12);
  const std::string buf = w.Finish();
  BitReader r(buf.data(), buf.size());
  EXPECT_EQ(r.PeekBits(12), 0xABCu);
  EXPECT_EQ(r.PeekBits(12), 0xABCu);  // Still there.
  EXPECT_EQ(*r.ReadBits(12), 0xABCu);
}

TEST(PeekBitsTest, PeekMatchesReadAtEveryOffset) {
  Rng rng(1);
  BitWriter w;
  for (int i = 0; i < 500; ++i) w.WriteBits(rng.NextU64() & 0x1F, 5);
  const std::string buf = w.Finish();
  BitReader peeker(buf.data(), buf.size());
  BitReader reader(buf.data(), buf.size());
  for (int i = 0; i < 500; ++i) {
    const uint64_t peeked = peeker.PeekBits(5);
    peeker.SkipBits(5);
    EXPECT_EQ(peeked, *reader.ReadBits(5)) << "symbol " << i;
  }
}

TEST(PeekBitsTest, ZeroPaddedPastEnd) {
  BitWriter w;
  w.WriteBits(0b1111, 4);
  const std::string buf = w.Finish();  // One byte: 11110000.
  BitReader r(buf.data(), buf.size());
  // Peeking 16 bits over an 8-bit stream zero-pads.
  EXPECT_EQ(r.PeekBits(16), 0b1111000000000000u);
}

TEST(PeekBitsTest, PeekOnEmptyStreamIsZero) {
  BitReader r(nullptr, 0);
  EXPECT_EQ(r.PeekBits(32), 0u);
}

TEST(SkipBitsTest, ClampsAtEnd) {
  BitWriter w;
  w.WriteBits(0xFF, 8);
  const std::string buf = w.Finish();
  BitReader r(buf.data(), buf.size());
  r.SkipBits(1000);
  EXPECT_EQ(r.BitsRemaining(), 0u);
  EXPECT_FALSE(r.ReadBits(1).ok());
}

TEST(SkipBitsTest, PartialSkipLeavesCursorCorrect) {
  BitWriter w;
  w.WriteBits(0b10110011, 8);
  const std::string buf = w.Finish();
  BitReader r(buf.data(), buf.size());
  r.SkipBits(3);
  EXPECT_EQ(*r.ReadBits(5), 0b10011u);
}

// Bit-at-a-time reference reader over the same bytes: bit i is bit
// 7 - i % 8 of byte i / 8, and bits past the end read as zero.
class ReferenceReader {
 public:
  explicit ReferenceReader(const std::string& bytes) : bytes_(bytes) {}
  size_t remaining() const { return bytes_.size() * 8 - pos_; }
  uint64_t Peek(int nbits) const {
    uint64_t v = 0;
    for (int i = 0; i < nbits; ++i) v = (v << 1) | BitAt(pos_ + i);
    return v;
  }
  void Skip(size_t nbits) { pos_ = std::min(pos_ + nbits, bytes_.size() * 8); }
  void Align() { Skip((8 - pos_ % 8) % 8); }

 private:
  uint64_t BitAt(size_t i) const {
    if (i >= bytes_.size() * 8) return 0;
    return (static_cast<uint8_t>(bytes_[i / 8]) >> (7 - i % 8)) & 1;
  }
  const std::string& bytes_;
  size_t pos_ = 0;
};

TEST(BitReaderTest, MatchesBitByBitReference) {
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    // Short buffers keep most operations inside the last eight bytes,
    // where the reader leaves its word-at-a-time path. The reader sees
    // only `bytes`, the front of a longer buffer whose rest is all ones:
    // a load past the end would show up as set bits.
    std::string backing(rng.UniformU64(24) + 8, '\xff');
    for (size_t i = 0; i + 8 < backing.size(); ++i) {
      backing[i] = static_cast<char>(rng.UniformU64(256));
    }
    const std::string bytes = backing.substr(0, backing.size() - 8);
    BitReader r(backing.data(), bytes.size());
    ReferenceReader ref(bytes);
    for (int op = 0; op < 40; ++op) {
      const uint64_t kind = rng.UniformU64(8);
      if (kind == 0) {
        // The buffer is whole bytes, so the bits left to the next byte
        // boundary are BitsRemaining() % 8.
        r.SkipBits(static_cast<int>(r.BitsRemaining() % 8));
        ref.Align();
      } else if (kind == 1) {
        const int nbits = rng.UniformInt(0, 20);
        r.SkipBits(nbits);
        ref.Skip(static_cast<size_t>(nbits));
      } else if (kind < 5) {
        const int nbits = rng.UniformInt(0, 57);
        ASSERT_EQ(r.PeekBits(nbits), ref.Peek(nbits))
            << "trial " << trial << " op " << op << " width " << nbits;
      } else {
        const int nbits = rng.UniformInt(0, 64);
        auto got = r.ReadBits(nbits);
        if (static_cast<size_t>(nbits) > ref.remaining()) {
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
        } else {
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(*got, ref.Peek(nbits))
              << "trial " << trial << " op " << op << " width " << nbits;
          ref.Skip(static_cast<size_t>(nbits));
        }
      }
      ASSERT_EQ(r.BitsRemaining(), ref.remaining());
    }
  }
}

TEST(BitReaderTest, EveryWidthAtEveryOffsetNearTheEnd) {
  // Ten bytes: offsets 0..79 cover reads that fit one 8-byte load, reads
  // that straddle nine bytes, and reads wholly inside the tail. The
  // backing buffer continues with ones the reader must never see.
  const std::string backing =
      "\x9c\x3a\xe1\x57\x0f\xd2\x6b\x84\xc5\x2e\xff\xff\xff\xff\xff\xff"
      "\xff\xff";
  const std::string bytes = backing.substr(0, 10);
  const std::vector<uint8_t> exact(bytes.begin(), bytes.end());
  for (size_t offset = 0; offset <= bytes.size() * 8; ++offset) {
    for (int nbits = 0; nbits <= 64; ++nbits) {
      BitReader r(backing.data(), bytes.size());
      r.SkipBits(static_cast<int>(offset));
      // The same reads over an exactly sized heap buffer, where a
      // sanitizer build flags any load past the end.
      BitReader exact_reader(exact.data(), exact.size());
      exact_reader.SkipBits(static_cast<int>(offset));
      if (nbits <= 57) (void)exact_reader.PeekBits(nbits);
      (void)exact_reader.ReadBits(nbits);
      ReferenceReader at(bytes);
      at.Skip(offset);
      if (nbits <= 57) {
        ASSERT_EQ(r.PeekBits(nbits), at.Peek(nbits))
            << "offset " << offset << " width " << nbits;
      }
      auto got = r.ReadBits(nbits);
      if (static_cast<size_t>(nbits) > at.remaining()) {
        EXPECT_FALSE(got.ok());
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, at.Peek(nbits))
            << "offset " << offset << " width " << nbits;
      }
    }
  }
}

TEST(BitReaderTest, OutOfRangeWidthIsCorruption) {
  const std::string bytes(16, '\x7f');
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.ReadBits(65).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.ReadBits(-1).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.BitsRemaining(), 128u);
}

}  // namespace
}  // namespace util
}  // namespace errorflow
