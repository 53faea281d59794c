#include "compress/codec/huffman.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace errorflow {
namespace compress {
namespace {

std::vector<uint32_t> RoundTrip(const std::vector<uint32_t>& symbols) {
  util::BitWriter w;
  EXPECT_TRUE(HuffmanCodec::Encode(symbols, &w).ok());
  const std::string buf = w.Finish();
  util::BitReader r(buf.data(), buf.size());
  auto decoded = HuffmanCodec::Decode(&r, symbols.size());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? *decoded : std::vector<uint32_t>{};
}

TEST(HuffmanTest, SimpleRoundTrip) {
  const std::vector<uint32_t> syms = {1, 2, 2, 3, 3, 3, 3, 1};
  EXPECT_EQ(RoundTrip(syms), syms);
}

TEST(HuffmanTest, SingleSymbolAlphabet) {
  const std::vector<uint32_t> syms(100, 42);
  EXPECT_EQ(RoundTrip(syms), syms);
}

TEST(HuffmanTest, SingleElementStream) {
  const std::vector<uint32_t> syms = {7};
  EXPECT_EQ(RoundTrip(syms), syms);
}

TEST(HuffmanTest, LargeSymbolValues) {
  const std::vector<uint32_t> syms = {0xFFFFFFFFu, 0, 0xFFFFFFFFu,
                                      0x80000000u};
  EXPECT_EQ(RoundTrip(syms), syms);
}

TEST(HuffmanTest, EmptyStreamRoundTrips) {
  // An empty input is a valid zero-symbol stream (a bare zero-count
  // table), so all-escape chunks need no caller special-casing.
  util::BitWriter w;
  ASSERT_TRUE(HuffmanCodec::Encode({}, &w).ok());
  const std::string blob = w.Finish();
  EXPECT_EQ(blob.size(), 4u);  // Just the 32-bit table count.
  util::BitReader r(blob.data(), blob.size());
  auto decoded = HuffmanCodec::Decode(&r, 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(HuffmanTest, EmptyTableWithNonzeroCountRejected) {
  util::BitWriter w;
  ASSERT_TRUE(HuffmanCodec::Encode({}, &w).ok());
  const std::string blob = w.Finish();
  util::BitReader r(blob.data(), blob.size());
  EXPECT_FALSE(HuffmanCodec::Decode(&r, 1).ok());
}

TEST(HuffmanTest, SkewedDistributionCompresses) {
  // 95% zeros should code to far fewer than 32 bits/symbol.
  util::Rng rng(1);
  std::vector<uint32_t> syms;
  for (int i = 0; i < 10000; ++i) {
    syms.push_back(rng.UniformDouble() < 0.95
                       ? 0
                       : static_cast<uint32_t>(rng.UniformU64(16)));
  }
  util::BitWriter w;
  ASSERT_TRUE(HuffmanCodec::Encode(syms, &w).ok());
  EXPECT_LT(w.bit_count(), syms.size() * 2 + 20 * 38 + 64);
  util::BitReader r(nullptr, 0);
  const std::string buf = w.Finish();
  util::BitReader r2(buf.data(), buf.size());
  EXPECT_EQ(*HuffmanCodec::Decode(&r2, syms.size()), syms);
}

TEST(HuffmanTest, RandomizedRoundTrips) {
  util::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const int alphabet = rng.UniformInt(1, 300);
    const int length = rng.UniformInt(1, 3000);
    std::vector<uint32_t> syms;
    syms.reserve(static_cast<size_t>(length));
    for (int i = 0; i < length; ++i) {
      // Geometric-ish skew so code lengths differ.
      uint32_t s = 0;
      while (s + 1 < static_cast<uint32_t>(alphabet) &&
             rng.UniformDouble() < 0.5) {
        ++s;
      }
      syms.push_back(s);
    }
    EXPECT_EQ(RoundTrip(syms), syms) << "trial " << trial;
  }
}

TEST(HuffmanTest, TruncatedStreamIsError) {
  const std::vector<uint32_t> syms = {1, 2, 3, 4, 5, 6, 7, 8};
  util::BitWriter w;
  ASSERT_TRUE(HuffmanCodec::Encode(syms, &w).ok());
  std::string buf = w.Finish();
  buf.resize(buf.size() / 2);
  util::BitReader r(buf.data(), buf.size());
  EXPECT_FALSE(HuffmanCodec::Decode(&r, syms.size()).ok());
}

// Textbook Huffman payload: merging the two lightest weights until one
// remains, the merged weights sum to sum(f * l) over the leaves. A lone
// symbol still costs one bit per occurrence.
uint64_t TextbookPayloadBits(const std::vector<uint32_t>& symbols) {
  std::map<uint32_t, uint64_t> freq;
  for (uint32_t s : symbols) ++freq[s];
  if (freq.size() == 1) return symbols.size();
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> heap;
  for (const auto& [sym, f] : freq) heap.push(f);
  uint64_t bits = 0;
  while (heap.size() > 1) {
    const uint64_t a = heap.top();
    heap.pop();
    const uint64_t b = heap.top();
    heap.pop();
    bits += a + b;
    heap.push(a + b);
  }
  return bits;
}

size_t DistinctCount(std::vector<uint32_t> symbols) {
  std::sort(symbols.begin(), symbols.end());
  return static_cast<size_t>(
      std::unique(symbols.begin(), symbols.end()) - symbols.begin());
}

std::vector<std::vector<uint32_t>> TieHeavyStreams() {
  std::vector<std::vector<uint32_t>> streams = {
      {5}, {1, 2}, {9, 9, 9, 4}, {1, 2, 3}, {3, 1, 2, 1, 2, 3, 7, 8}};
  util::Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    // Few occurrences over wide alphabets: many equal frequencies, so the
    // tie-break decides which symbol gets which length.
    std::vector<uint32_t> v;
    const int n = rng.UniformInt(1, 600);
    const uint64_t alphabet = 1 + rng.UniformU64(trial % 2 == 0 ? 40 : 4000);
    for (int i = 0; i < n; ++i) {
      v.push_back(
          static_cast<uint32_t>(rng.UniformU64(alphabet) * 2654435761u));
    }
    streams.push_back(std::move(v));
  }
  return streams;
}

TEST(HuffmanTest, EncodedBitCountIsTableAndOptimalPayload) {
  for (const auto& syms : TieHeavyStreams()) {
    util::BitWriter w;
    EncodeStats stats;
    ASSERT_TRUE(HuffmanCodec::Encode(syms, &w, &stats).ok());
    const uint64_t table_bits = 32 + 38 * DistinctCount(syms);
    const uint64_t payload_bits = TextbookPayloadBits(syms);
    EXPECT_EQ(stats.overhead_bits, table_bits);
    EXPECT_EQ(stats.payload_bits, payload_bits);
    EXPECT_EQ(w.bit_count(), table_bits + payload_bits);
  }
}

TEST(HuffmanTest, OutputDependsOnlyOnTheSymbols) {
  for (const auto& syms : TieHeavyStreams()) {
    util::BitWriter first, second;
    ASSERT_TRUE(HuffmanCodec::Encode(syms, &first).ok());
    // An unrelated encode in between leaves no state behind.
    util::BitWriter unrelated;
    ASSERT_TRUE(HuffmanCodec::Encode({1, 1, 2, 3, 5, 8}, &unrelated).ok());
    ASSERT_TRUE(HuffmanCodec::Encode(syms, &second).ok());
    EXPECT_EQ(first.Finish(), second.Finish());
  }
}

TEST(HuffmanTest, CodeTableIgnoresFirstOccurrenceOrder) {
  // The same multiset in two orders: symbols first seen in ascending and
  // in descending order. The code table (count plus 38 bits per symbol)
  // must come out identical; only the payload order differs.
  for (const auto& syms : TieHeavyStreams()) {
    std::vector<uint32_t> ascending = syms, descending = syms;
    std::sort(ascending.begin(), ascending.end());
    std::sort(descending.rbegin(), descending.rend());
    util::BitWriter a, b;
    ASSERT_TRUE(HuffmanCodec::Encode(ascending, &a).ok());
    ASSERT_TRUE(HuffmanCodec::Encode(descending, &b).ok());
    ASSERT_EQ(a.bit_count(), b.bit_count());
    const std::string blob_a = a.Finish(), blob_b = b.Finish();
    util::BitReader ra(blob_a.data(), blob_a.size());
    util::BitReader rb(blob_b.data(), blob_b.size());
    const uint64_t table_bits = 32 + 38 * DistinctCount(syms);
    for (uint64_t bit = 0; bit < table_bits; bit += 32) {
      const int width =
          static_cast<int>(std::min<uint64_t>(32, table_bits - bit));
      ASSERT_EQ(*ra.ReadBits(width), *rb.ReadBits(width)) << "bit " << bit;
    }
  }
}

TEST(ZigzagTest, RoundTripsAllSigns) {
  for (int32_t v : {0, 1, -1, 2, -2, 1000000, -1000000, INT32_MAX,
                    INT32_MIN + 1}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(ZigzagTest, SmallMagnitudesGetSmallCodes) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
