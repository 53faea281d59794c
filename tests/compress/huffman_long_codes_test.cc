// Forces Huffman code lengths beyond the 12-bit fast-path table so the
// canonical-group decoder is exercised and agrees with the encoder, and
// feeds it hand-built tables the encoder never writes: codes longer than
// one 57-bit peek, and incomplete codes with invalid code words.
#include <cstdint>
#include <utility>
#include <vector>

#include "compress/codec/huffman.h"
#include "gtest/gtest.h"
#include "util/bitstream.h"

namespace errorflow {
namespace compress {
namespace {

// Fibonacci-like frequencies create maximally skewed Huffman trees: with
// ~25 symbols the rarest code is ~24 bits long, well past the table.
std::vector<uint32_t> FibonacciSkewedStream(int alphabet) {
  std::vector<uint64_t> freq(static_cast<size_t>(alphabet));
  freq[0] = 1;
  freq[1] = 1;
  for (int i = 2; i < alphabet; ++i) freq[i] = freq[i - 1] + freq[i - 2];
  std::vector<uint32_t> stream;
  for (int s = 0; s < alphabet; ++s) {
    // Cap the repetitions so the stream stays small but the *frequencies*
    // fed to the tree are skewed: encode frequency into repeated pushes
    // with a cap.
    const uint64_t reps = std::min<uint64_t>(freq[static_cast<size_t>(s)],
                                             4000);
    for (uint64_t r = 0; r < reps; ++r) {
      stream.push_back(static_cast<uint32_t>(s));
    }
  }
  return stream;
}

TEST(HuffmanLongCodesTest, RoundTripWithCodesBeyondTable) {
  const std::vector<uint32_t> syms = FibonacciSkewedStream(26);
  util::BitWriter w;
  ASSERT_TRUE(HuffmanCodec::Encode(syms, &w).ok());
  const std::string buf = w.Finish();
  util::BitReader r(buf.data(), buf.size());
  auto decoded = HuffmanCodec::Decode(&r, syms.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, syms);
}

TEST(HuffmanLongCodesTest, MixedShortAndLongCodes) {
  // A hot symbol plus a rare tail: the hot path uses the table, the tail
  // the group decoder — interleaved.
  std::vector<uint32_t> syms;
  std::vector<uint32_t> tail = FibonacciSkewedStream(24);
  for (size_t i = 0; i < tail.size(); ++i) {
    syms.push_back(9999);  // Dominant symbol.
    syms.push_back(tail[i]);
  }
  util::BitWriter w;
  ASSERT_TRUE(HuffmanCodec::Encode(syms, &w).ok());
  const std::string buf = w.Finish();
  util::BitReader r(buf.data(), buf.size());
  auto decoded = HuffmanCodec::Decode(&r, syms.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, syms);
}

// Writes a Huffman stream header by hand: the table count, then (symbol,
// length) pairs, which must already be in canonical (length, symbol)
// order.
void WriteTable(const std::vector<std::pair<uint32_t, int>>& table,
                util::BitWriter* w) {
  w->WriteBits(table.size(), 32);
  for (const auto& [symbol, length] : table) {
    w->WriteBits(symbol, 32);
    w->WriteBits(static_cast<uint64_t>(length), 6);
  }
}

TEST(HuffmanLongCodesTest, CodesLongerThanOnePeekDecode) {
  // Lengths 1, 2, ..., 59, 60, 60: a complete canonical code whose length-L
  // code (L < 60) is L - 1 ones then a zero, and whose two 60-bit codes
  // are 59 ones then 0 or 1. Codes past 57 bits need a second peek.
  std::vector<std::pair<uint32_t, int>> table;
  for (int length = 1; length < 60; ++length) {
    table.push_back({static_cast<uint32_t>(1000 + length), length});
  }
  table.push_back({2000, 60});
  table.push_back({2001, 60});
  auto code_of = [](int length, bool last) -> uint64_t {
    if (length == 60) return (uint64_t{1} << 60) - (last ? 1 : 2);
    return (uint64_t{1} << length) - 2;
  };
  const std::vector<std::pair<int, bool>> payload = {
      {1, false},  {13, false}, {57, false}, {58, false}, {60, true},
      {59, false}, {60, false}, {12, false}, {2, false},  {60, true}};
  util::BitWriter w;
  WriteTable(table, &w);
  std::vector<uint32_t> expected;
  for (const auto& [length, last] : payload) {
    w.WriteBits(code_of(length, last), length);
    expected.push_back(length == 60 ? (last ? 2001u : 2000u)
                                    : static_cast<uint32_t>(1000 + length));
  }
  const std::string buf = w.Finish();
  util::BitReader r(buf.data(), buf.size());
  auto decoded = HuffmanCodec::Decode(&r, expected.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, expected);
}

// An incomplete code: lengths {1, 14, 14} leave most 14-bit words unused.
// Canonically, symbol 7 is "0", and 8 and 9 are "1" then 13 bits of 0
// and of ...01.
void WriteIncompleteTable(util::BitWriter* w) {
  WriteTable({{7, 1}, {8, 14}, {9, 14}}, w);
}

TEST(HuffmanLongCodesTest, InvalidLongCodeWordIsCorruption) {
  util::BitWriter w;
  WriteIncompleteTable(&w);
  w.WriteBits(0, 1);        // 7
  w.WriteBits(0x2001, 14);  // 9
  w.WriteBits(0x3000, 14);  // "11...": no code starts so.
  const std::string buf = w.Finish();
  for (uint64_t count : {2, 3}) {
    util::BitReader r(buf.data(), buf.size());
    auto decoded = HuffmanCodec::Decode(&r, count);
    if (count == 2) {
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(*decoded, (std::vector<uint32_t>{7, 9}));
    } else {
      ASSERT_FALSE(decoded.ok());
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(HuffmanLongCodesTest, TruncatedLongCodeIsCorruption) {
  // The 146-bit table, then symbol 8's code cut after 6 of its 14 bits,
  // where the stream ends on a byte boundary: the zero-padded peek matches
  // symbol 8, but the stream cannot supply its bits.
  util::BitWriter w;
  WriteIncompleteTable(&w);
  w.WriteBits(0x2000 >> 8, 6);
  const std::string buf = w.Finish();
  util::BitReader r(buf.data(), buf.size());
  auto decoded = HuffmanCodec::Decode(&r, 1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
