// Lz77HuffmanCodec decode fuzzing: structure-aware mutations of real
// streams (the encoder's stored output, testdata/lz77_fuzz_corpus.bin)
// plus hand-crafted blobs for each validation branch (length inflation
// past kMaxMatch, distances reaching before the stream start, truncated
// matches, token-count and output-count bombs). Runs inside
// ef_fuzz_tests, whose allocation guard refuses any single heap request
// above 256 MiB — the codec must reject bombs before allocating.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec/codec.h"
#include "compress/codec/huffman.h"
#include "gtest/gtest.h"
#include "testing/alloc_guard.h"
#include "testing/fuzz_util.h"
#include "testing/stored_payloads.h"
#include "util/bitstream.h"
#include "util/random.h"

namespace errorflow {
namespace compress {
namespace {

// The lz77 encoder's output for quantization-code-shaped streams: skewed
// literals with repetitive spans, so each mixes literal and match tokens.
// Records 0-2 are the mutation corpus; record 3 is a 500-symbol stream
// and record 4 a 200-symbol one.
std::vector<testing::StoredPayload> Corpus() {
  std::vector<testing::StoredPayload> corpus =
      testing::ReadStoredPayloads("lz77_fuzz_corpus.bin");
  EXPECT_EQ(corpus.size(), 5u);
  corpus.resize(5);
  return corpus;
}

TEST(Lz77FuzzTest, StructureAwareMutationsHandled) {
  const EntropyCodec* codec = GetCodec(CodecId::kLz77Huffman);
  const std::vector<testing::StoredPayload> stored = Corpus();
  std::vector<std::string> corpus;
  std::vector<uint64_t> counts;
  for (int c = 0; c < 3; ++c) {
    corpus.push_back(stored[c].bytes);
    counts.push_back(stored[c].count);
  }
  testing::BlobMutator mutator(corpus, /*seed=*/0x7A);
  testing::ResetMaxSingleAlloc();
  size_t iter = 0;
  const auto stats = testing::RunFuzz(
      &mutator, testing::FuzzIterations(), [&](const std::string& blob) {
        util::BitReader bits(blob.data(), blob.size());
        auto result = codec->Decode(&bits, counts[iter++ % counts.size()]);
        if (!result.ok()) {
          EXPECT_FALSE(result.status().message().empty());
        }
      });
  EXPECT_EQ(stats.oversize_allocs, 0);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

TEST(Lz77FuzzTest, TruncationsAndBitFlipsHandled) {
  const EntropyCodec* codec = GetCodec(CodecId::kLz77Huffman);
  const testing::StoredPayload stored = Corpus()[3];
  const std::string& blob = stored.bytes;
  {
    util::BitReader reader(blob.data(), blob.size());
    auto whole = codec->Decode(&reader, stored.count);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  }
  // Every truncation point — including ones that cut a match token's
  // extra bits mid-field — must surface as Status, never a crash.
  // (The last byte may be pure padding, so only shorter prefixes are
  // guaranteed to fail; every one must surface as Status, never a crash.)
  for (size_t len = 0; len + 1 < blob.size(); ++len) {
    util::BitReader reader(blob.data(), len);
    auto result = codec->Decode(&reader, stored.count);
    EXPECT_FALSE(result.ok()) << "decoded from a " << len << "-byte prefix";
  }
  util::Rng rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = blob;
    const size_t pos = static_cast<size_t>(rng.UniformU64(blob.size()));
    corrupted[pos] =
        static_cast<char>(corrupted[pos] ^ (1 << rng.UniformU64(8)));
    util::BitReader reader(corrupted.data(), corrupted.size());
    auto result = codec->Decode(&reader, stored.count);
    (void)result;  // No crash is the assertion; flips may still parse.
  }
}

// ----- Hand-crafted regression blobs, one per validation branch ---------

// Each helper writes the sections the decoder expects: the two token
// counts, the per-context literal section, run buckets + extras, length
// buckets + extras, distance buckets + extras. Sub-streams use the real
// Huffman encoder so only the targeted field is malformed.
struct Lz77BlobBuilder {
  static constexpr uint32_t kNumContexts = 13;
  util::BitWriter bits;

  void Counts(uint64_t n_lit, uint64_t n_match) {
    bits.WriteBits(n_lit, 32);
    bits.WriteBits(n_match, 32);
  }
  void Stream(const std::vector<uint32_t>& symbols) {
    ASSERT_TRUE(HuffmanCodec::Encode(symbols, &bits).ok());
  }
  // Context counts plus the eight per-context Huffman streams, given each
  // literal annotated with the output symbol preceding it.
  void Literals(const std::vector<std::pair<uint32_t, uint32_t>>& lit_prev) {
    std::vector<uint32_t> ctx[kNumContexts];
    for (const auto& [lit, prev] : lit_prev) {
      uint32_t k = prev;
      if (prev >= 8) {
        const uint32_t w = 32u - static_cast<uint32_t>(__builtin_clz(prev));
        k = std::min(8u + w - 4u, kNumContexts - 1);
      }
      ctx[k].push_back(lit);
    }
    for (const auto& c : ctx) bits.WriteBits(c.size(), 32);
    for (const auto& c : ctx) Stream(c);
  }
  std::string Finish() { return bits.Finish(); }
};

Result<std::vector<uint32_t>> DecodeBlob(const std::string& blob,
                                         uint64_t count) {
  util::BitReader reader(blob.data(), blob.size());
  return GetCodec(CodecId::kLz77Huffman)->Decode(&reader, count);
}

TEST(Lz77RegressionTest, ContextCountMismatchRejected) {
  // The eight per-context literal counts must sum to n_literals before
  // any context stream is decoded.
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  for (uint32_t k = 0; k < Lz77BlobBuilder::kNumContexts; ++k) {
    b.bits.WriteBits(0, 32);
  }
  auto result = DecodeBlob(b.Finish(), 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(Lz77RegressionTest, BadRunBucketRejected) {
  // Run bucket 33 is past kMaxRunBucket: rejected before its extra bits
  // (which would be a nonsense 33-bit read) are consumed.
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  b.Literals({{5, 0}});        // One literal.
  b.Stream({33, 0});    // Run buckets: first is out of range.
  auto result = DecodeBlob(b.Finish(), 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(Lz77RegressionTest, RunsNotCoveringLiteralsRejected) {
  // The n_match + 1 literal runs must partition the literal stream
  // exactly: runs {0, 0} over one literal leave it unconsumed.
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  b.Literals({{5, 0}});        // One literal.
  b.Stream({0, 0});     // Runs 0 and 0 (bucket 0 has no extras).
  b.Stream({0});        // Length bucket (never reached).
  b.Stream({0});        // Distance bucket (never reached).
  auto result = DecodeBlob(b.Finish(), 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(Lz77RegressionTest, LengthInflationRejected) {
  // A max-bucket length with all-ones extra bits reconstructs to 8193,
  // past kMaxMatch = 4096: must be caught before the copy loop runs.
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  b.Literals({{5, 0}});        // One literal.
  b.Stream({1, 0});     // Runs: 1 literal before the match, 0 trailing...
  b.bits.WriteBits(0, 1);       // ...bucket 1 owes one extra bit (u = 2).
  b.Stream({12});           // Length bucket 12 (the accepted maximum)...
  b.bits.WriteBits(0xFFF, 12);  // ...with extras pushing len to 8193.
  b.Stream({0});            // Distance bucket (never reached).
  auto result = DecodeBlob(b.Finish(), 100);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(Lz77RegressionTest, OversizedLengthBucketRejected) {
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  b.Literals({{5, 0}});
  b.Stream({1, 0});
  b.bits.WriteBits(0, 1);
  b.Stream({13});  // Bucket beyond kMaxLengthBucket.
  b.Stream({0});
  auto result = DecodeBlob(b.Finish(), 100);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(Lz77RegressionTest, DistanceBeyondWindowRejected) {
  // One literal of output, then a match at distance 1024: the copy would
  // read 1023 symbols before the start of the stream.
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  b.Literals({{5, 0}});                // One literal.
  b.Stream({1, 0});             // Runs: 1 then 0.
  b.bits.WriteBits(0, 1);
  b.Stream({0});                // Length bucket 0 -> len = kMinMatch = 3.
  b.Stream({10});               // Distance bucket 10...
  b.bits.WriteBits(0, 10);      // ...-> dist = 1024 > out.size() = 1.
  auto result = DecodeBlob(b.Finish(), 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(Lz77RegressionTest, OversizedDistanceBucketRejected) {
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  b.Literals({{5, 0}});
  b.Stream({1, 0});
  b.bits.WriteBits(0, 1);
  b.Stream({0});
  b.Stream({22});  // Beyond kMaxDistanceBucket and the repeat code.
  auto result = DecodeBlob(b.Finish(), 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(Lz77RegressionTest, RepDistanceWithoutPriorMatchRejected) {
  // Distance symbol 21 repeats the previous match's distance; a stream
  // whose first match uses it has no distance to repeat.
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  b.Literals({{5, 0}});
  b.Stream({1, 0});
  b.bits.WriteBits(0, 1);
  b.Stream({0});
  b.Stream({21});  // Repeat-distance code with prev_dist == 0.
  auto result = DecodeBlob(b.Finish(), 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(Lz77RegressionTest, TruncatedMatchExtrasRejected) {
  // Valid token framing whose distance extra bits are cut off: the reader
  // must report the truncation instead of inventing bits.
  Lz77BlobBuilder b;
  b.Counts(1, 1);
  b.Literals({{5, 0}});
  b.Stream({1, 0});
  b.bits.WriteBits(0, 1);
  b.Stream({0});
  b.Stream({10});
  // Ten extra bits are owed here; write none. The reader reports the
  // exhausted stream (its own error code, not necessarily kCorruption).
  auto result = DecodeBlob(b.Finish(), 4);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

TEST(Lz77RegressionTest, TokenCountBombRejectedBeforeAllocation) {
  // Maximal 32-bit token counts over a tiny payload must be rejected by
  // the tokens-vs-count reachability check before any sub-stream decode
  // sizes a buffer from them.
  util::BitWriter bits;
  bits.WriteBits(0xFFFFFFFFull, 32);
  bits.WriteBits(0xFFFFFFFFull, 32);
  bits.WriteBits(0, 16);
  const std::string blob = bits.Finish();
  testing::ResetMaxSingleAlloc();
  auto result = DecodeBlob(blob, uint64_t{1} << 20);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

TEST(Lz77RegressionTest, OutputCountBombRejectedBeforeAllocation) {
  // A valid stream decoded with a fabricated giant count: DecodeLimits
  // refuses the 4 GiB output reserve up front.
  const std::string blob = Corpus()[4].bytes;
  testing::ResetMaxSingleAlloc();
  auto result = DecodeBlob(blob, uint64_t{1} << 30);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

TEST(Lz77RegressionTest, CountUnreachableFromTokensRejected) {
  // count < token_count (some token would have no output) and
  // count > n_lit + n_match * kMaxMatch (tokens cannot produce that much)
  // both fail the reachability check before any sub-stream decode.
  Lz77BlobBuilder b;
  b.Counts(8, 0);
  b.Literals({{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {7, 6}, {8, 7}});
  b.Stream({3});               // Single trailing run of 8 (u = 9)...
  b.bits.WriteBits(1, 3);      // ...bucket 3, extra 1.
  b.Stream({});                // No matches: empty length stream...
  b.Stream({});                // ...and empty distance stream.
  const std::string blob = b.Finish();
  EXPECT_FALSE(DecodeBlob(blob, 4).ok());
  EXPECT_FALSE(DecodeBlob(blob, 9).ok());
  // The exact count still decodes.
  auto ok = DecodeBlob(blob, 8);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), 8u);
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
