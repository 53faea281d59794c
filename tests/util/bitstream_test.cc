#include "util/bitstream.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace errorflow {
namespace util {
namespace {

TEST(BitStreamTest, SingleBitsRoundTrip) {
  BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (bool b : pattern) w.WriteBits(b ? 1 : 0, 1);
  const std::string buf = w.Finish();
  BitReader r(buf.data(), buf.size());
  for (bool b : pattern) {
    auto bit = r.ReadBits(1);
    ASSERT_TRUE(bit.ok());
    EXPECT_EQ(*bit, b ? 1u : 0u);
  }
}

TEST(BitStreamTest, MultiBitValuesRoundTrip) {
  BitWriter w;
  w.WriteBits(0x5, 3);
  w.WriteBits(0xDEADBEEF, 32);
  w.WriteBits(0x1FFFFFFFFFFFFFFull, 57);
  w.WriteBits(0, 1);
  const std::string buf = w.Finish();
  BitReader r(buf.data(), buf.size());
  EXPECT_EQ(*r.ReadBits(3), 0x5u);
  EXPECT_EQ(*r.ReadBits(32), 0xDEADBEEFull);
  EXPECT_EQ(*r.ReadBits(57), 0x1FFFFFFFFFFFFFFull);
  EXPECT_EQ(*r.ReadBits(1), 0u);
}

TEST(BitStreamTest, ZeroBitWriteIsNoop) {
  BitWriter w;
  w.WriteBits(0xFF, 0);
  EXPECT_EQ(w.bit_count(), 0u);
}

TEST(BitStreamTest, ExhaustionReturnsOutOfRange) {
  BitWriter w;
  w.WriteBits(0xA, 4);
  const std::string buf = w.Finish();  // Padded to 8 bits.
  BitReader r(buf.data(), buf.size());
  EXPECT_TRUE(r.ReadBits(8).ok());
  auto more = r.ReadBits(1);
  EXPECT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kOutOfRange);
}

TEST(BitStreamTest, AlignToByteSkipsToBoundary) {
  BitWriter w;
  w.WriteBits(0x3, 2);
  w.AlignToByte();
  w.WriteBits(0xAB, 8);
  const std::string buf = w.Finish();
  ASSERT_EQ(buf.size(), 2u);
  BitReader r(buf.data(), buf.size());
  EXPECT_EQ(*r.ReadBits(2), 0x3u);
  r.SkipBits(static_cast<int>(r.BitsRemaining() % 8));
  EXPECT_EQ(*r.ReadBits(8), 0xABu);
}

TEST(BitStreamTest, RandomizedRoundTrip) {
  Rng rng(99);
  std::vector<std::pair<uint64_t, int>> values;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const int nbits = rng.UniformInt(1, 64);
    const uint64_t v =
        nbits == 64 ? rng.NextU64() : rng.NextU64() & ((1ull << nbits) - 1);
    values.push_back({v, nbits});
    w.WriteBits(v, nbits);
  }
  const std::string buf = w.Finish();
  BitReader r(buf.data(), buf.size());
  for (const auto& [v, nbits] : values) {
    auto got = r.ReadBits(nbits);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(BitStreamTest, BitCountTracksWrites) {
  BitWriter w;
  w.WriteBits(1, 5);
  w.WriteBits(1, 1);
  EXPECT_EQ(w.bit_count(), 6u);
}

TEST(BitStreamTest, MsbFirstLayout) {
  BitWriter w;
  w.WriteBits(0b10110000, 8);
  const std::string buf = w.Finish();
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0b10110000);
}

// Bit-at-a-time reference writer: the plain definition of the MSB-first
// format that the word-at-a-time BitWriter must reproduce byte for byte.
class ReferenceWriter {
 public:
  void WriteBits(uint64_t value, int nbits) {
    for (int i = nbits - 1; i >= 0; --i) bits_.push_back((value >> i) & 1);
  }
  void AlignToByte() {
    while (bits_.size() % 8 != 0) bits_.push_back(false);
  }
  size_t bit_count() const { return bits_.size(); }
  std::string Finish() {
    AlignToByte();
    std::string out(bits_.size() / 8, '\0');
    for (size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i]) out[i / 8] |= static_cast<char>(0x80 >> (i % 8));
    }
    return out;
  }

 private:
  std::vector<bool> bits_;
};

TEST(BitStreamTest, WriterMatchesBitByBitReference) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter w;
    ReferenceWriter ref;
    const int ops = rng.UniformInt(0, 60);
    for (int op = 0; op < ops; ++op) {
      const uint64_t kind = rng.UniformU64(10);
      if (kind == 0) {
        w.AlignToByte();
        ref.AlignToByte();
      } else if (kind == 1) {
        const uint64_t bit = rng.UniformU64(2);
        w.WriteBits(bit, 1);
        ref.WriteBits(bit, 1);
      } else {
        // Every width 0..64; bits above the width are garbage the writer
        // must ignore.
        const int nbits = rng.UniformInt(0, 64);
        const uint64_t value = rng.NextU64();
        w.WriteBits(value, nbits);
        ref.WriteBits(value, nbits);
      }
      ASSERT_EQ(w.bit_count(), ref.bit_count()) << "trial " << trial;
    }
    ASSERT_EQ(w.Finish(), ref.Finish()) << "trial " << trial;
  }
}

TEST(BitStreamTest, EveryWidthAtEveryAlignmentMatchesReference) {
  for (int lead = 0; lead < 8; ++lead) {
    for (int nbits = 0; nbits <= 64; ++nbits) {
      BitWriter w;
      ReferenceWriter ref;
      w.WriteBits(0x55, lead);
      ref.WriteBits(0x55, lead);
      w.WriteBits(0xF0E1D2C3B4A59687ull, nbits);
      ref.WriteBits(0xF0E1D2C3B4A59687ull, nbits);
      ASSERT_EQ(w.Finish(), ref.Finish())
          << "lead " << lead << " width " << nbits;
    }
  }
}

// WriteCodes against the bit-by-bit reference: runs of codes of every
// length 1..56, between single writes that leave every pending-bit count
// in the accumulator, and between other runs.
TEST(BitStreamTest, WriteCodesMatchesBitByBitReference) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    BitWriter w;
    ReferenceWriter ref;
    const int runs = rng.UniformInt(1, 4);
    for (int run = 0; run < runs; ++run) {
      const int lead = rng.UniformInt(0, 40);
      w.WriteBits(0x5A5A5A5A5Aull, lead);
      ref.WriteBits(0x5A5A5A5A5Aull, lead);
      std::vector<BitWriter::Code> codes(rng.UniformU64(70));
      size_t total = 0;
      for (BitWriter::Code& c : codes) {
        c.length = rng.UniformInt(1, 56);
        c.bits = rng.NextU64() & ((uint64_t{1} << c.length) - 1);
        total += static_cast<size_t>(c.length);
        ref.WriteBits(c.bits, c.length);
      }
      w.WriteCodes(codes.size(), total,
                   [&](size_t i) { return codes[i]; });
      ASSERT_EQ(w.bit_count(), ref.bit_count()) << "trial " << trial;
    }
    ASSERT_EQ(w.Finish(), ref.Finish()) << "trial " << trial;
  }
}

TEST(BitStreamTest, ReserveCoversWritesWithoutReallocation) {
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t reserve_bytes = 1 + rng.UniformU64(300);
    BitWriter w;
    w.WriteBits(rng.NextU64(), rng.UniformInt(0, 64));
    const size_t written = w.bit_count() / 8;
    w.Reserve(reserve_bytes);
    const size_t capacity = w.capacity_bytes();
    EXPECT_GE(capacity, written + reserve_bytes);
    // Fill exactly the reserved bytes (plus the pending bits already in
    // hand) in random widths; not one of them may reallocate.
    const size_t limit = (written + reserve_bytes) * 8;
    while (w.bit_count() < limit) {
      const int nbits = static_cast<int>(std::min<size_t>(
          limit - w.bit_count(), static_cast<size_t>(rng.UniformInt(0, 64))));
      w.WriteBits(rng.NextU64(), nbits);
      ASSERT_EQ(w.capacity_bytes(), capacity) << "trial " << trial;
    }
    w.AlignToByte();
    EXPECT_EQ(w.capacity_bytes(), capacity);
  }
}

}  // namespace
}  // namespace util
}  // namespace errorflow
