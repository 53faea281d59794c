// Robustness tests: decompressors and the model deserializer must return
// Status errors (never crash, hang, or over-allocate) on corrupt input —
// random garbage, truncations at every offset, single-bit flips, and the
// structure-aware mutations of testing::BlobMutator. Runs inside
// ef_fuzz_tests, whose allocation guard (testing/alloc_guard.h) refuses any
// single heap request above 256 MiB.
#include <cstring>
#include <string>
#include <vector>

#include "compress/codec/huffman.h"
#include "compress/compressor.h"
#include "compress/parallel.h"
#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/serialize.h"
#include "testing/alloc_guard.h"
#include "testing/codec_reference.h"
#include "testing/fuzz_util.h"
#include "testing/test_util.h"
#include "util/bitstream.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace errorflow {
namespace {

using compress::Backend;
using compress::ParallelCompressor;
using tensor::Tensor;

class DecompressFuzzTest : public ::testing::TestWithParam<Backend> {};

TEST_P(DecompressFuzzTest, RandomGarbageNeverCrashes) {
  auto compressor = compress::MakeCompressor(GetParam());
  util::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformU64(300));
    std::string blob(len, '\0');
    for (char& c : blob) {
      c = static_cast<char>(rng.UniformU64(256));
    }
    auto result = compressor->Decompress(blob);
    // Either an error, or (vanishingly unlikely) a valid decode; both are
    // fine — the requirement is no crash.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST_P(DecompressFuzzTest, EveryTruncationIsHandled) {
  auto compressor = compress::MakeCompressor(GetParam());
  const Tensor data = testing::SmoothField2d(16, 16, 2);
  auto comp = compressor->Compress(data, compress::ErrorBound::AbsLinf(1e-3));
  ASSERT_TRUE(comp.ok());
  // Every prefix of the blob must decode to an error (or, for prefixes
  // that happen to be self-consistent, a tensor) without crashing.
  for (size_t len = 0; len < comp->blob.size(); len += 7) {
    auto result = compressor->Decompress(comp->blob.substr(0, len));
    (void)result;
  }
}

TEST_P(DecompressFuzzTest, BitFlipsAreHandled) {
  auto compressor = compress::MakeCompressor(GetParam());
  const Tensor data = testing::SmoothField2d(12, 12, 3);
  auto comp = compressor->Compress(data, compress::ErrorBound::AbsLinf(1e-3));
  ASSERT_TRUE(comp.ok());
  util::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    std::string blob = comp->blob;
    const size_t pos = static_cast<size_t>(rng.UniformU64(blob.size()));
    blob[pos] = static_cast<char>(blob[pos] ^
                                  (1 << rng.UniformU64(8)));
    auto result = compressor->Decompress(blob);
    (void)result;  // No crash is the assertion.
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, DecompressFuzzTest,
    ::testing::Values(Backend::kSz, Backend::kZfp, Backend::kMgard),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(compress::BackendToString(info.param));
    });

TEST(DeserializeFuzzTest, TruncationsAndFlipsHandled) {
  nn::MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dims = {6};
  cfg.output_dim = 2;
  cfg.seed = 5;
  nn::Model m = nn::BuildMlp(cfg);
  const std::string buf = nn::SerializeModel(m);
  for (size_t len = 0; len < buf.size(); len += 11) {
    auto result = nn::DeserializeModel(buf.substr(0, len));
    EXPECT_FALSE(result.ok());
  }
  util::Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    std::string corrupted = buf;
    const size_t pos = static_cast<size_t>(rng.UniformU64(buf.size()));
    corrupted[pos] =
        static_cast<char>(corrupted[pos] ^ (1 << rng.UniformU64(8)));
    auto result = nn::DeserializeModel(corrupted);
    (void)result;  // No crash; flips in weight bytes may still parse.
  }
}

// Real blobs from every backend at a few shapes/bounds: the corpus for the
// structure-aware mutators, and cross-format donors for HeaderSwap.
std::vector<std::string> BuildCorpus(Backend backend) {
  std::vector<std::string> corpus;
  const int grids[3][3] = {{16, 16, 2}, {12, 24, 3}, {7, 5, 4}};
  for (Backend b :
       {backend, backend == Backend::kSz ? Backend::kZfp : Backend::kSz}) {
    auto compressor = compress::MakeCompressor(b);
    for (const auto& g : grids) {
      const Tensor data = testing::SmoothField2d(g[0], g[1], g[2]);
      auto comp =
          compressor->Compress(data, compress::ErrorBound::AbsLinf(1e-3));
      if (comp.ok()) corpus.push_back(std::move(comp->blob));
    }
  }
  return corpus;
}

TEST_P(DecompressFuzzTest, StructureAwareMutationsHandled) {
  auto compressor = compress::MakeCompressor(GetParam());
  testing::BlobMutator mutator(BuildCorpus(GetParam()),
                               /*seed=*/0xF0 + static_cast<int>(GetParam()));
  testing::ResetMaxSingleAlloc();
  const auto stats = testing::RunFuzz(
      &mutator, testing::FuzzIterations(), [&](const std::string& blob) {
        auto result = compressor->Decompress(blob);
        if (!result.ok()) {
          EXPECT_FALSE(result.status().message().empty());
        }
      });
  EXPECT_EQ(stats.oversize_allocs, 0);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

TEST(ParallelFuzzTest, StructureAwareMutationsHandled) {
  util::ThreadPool pool(4);
  ParallelCompressor compressor(Backend::kSz, &pool, /*min_chunk_rows=*/4);
  std::vector<std::string> corpus;
  const int grids[2][3] = {{64, 16, 2}, {32, 8, 3}};
  for (const auto& g : grids) {
    const Tensor data = testing::SmoothField2d(g[0], g[1], g[2]);
    auto comp =
        compressor.Compress(data, compress::ErrorBound::AbsLinf(1e-3));
    ASSERT_TRUE(comp.ok());
    corpus.push_back(std::move(comp->blob));
  }
  // Cross-format donor: a serial sz blob, so HeaderSwap also produces
  // "inner blob where a parallel wrapper was expected".
  auto serial = compress::MakeCompressor(Backend::kSz)
                    ->Compress(testing::SmoothField2d(64, 16, 2),
                               compress::ErrorBound::AbsLinf(1e-3));
  ASSERT_TRUE(serial.ok());
  corpus.push_back(std::move(serial->blob));

  testing::BlobMutator mutator(std::move(corpus), /*seed=*/0xA11);
  testing::ResetMaxSingleAlloc();
  const auto stats = testing::RunFuzz(
      &mutator, testing::FuzzIterations(), [&](const std::string& blob) {
        auto result = compressor.Decompress(blob);
        (void)result;
      });
  EXPECT_EQ(stats.oversize_allocs, 0);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

TEST(HuffmanFuzzTest, StructureAwareMutationsHandled) {
  // Corpus: encoded streams of skewed symbol distributions (the shape
  // quantization codes take), in the raw bit-stream form Decode consumes,
  // plus streams whose last code is a long one (past the 12-bit table)
  // ending in each of the last 8 bytes, where the windowed decoder hands
  // over to the checked step. Every mutant must decode exactly as the
  // retained per-symbol decoder does: same symbols, or the same Status.
  std::vector<std::string> corpus;
  std::vector<uint64_t> counts;
  util::Rng rng(11);
  auto add = [&](const std::vector<uint32_t>& symbols) {
    util::BitWriter bits;
    ASSERT_TRUE(compress::HuffmanCodec::Encode(symbols, &bits).ok());
    corpus.push_back(bits.Finish());
    counts.push_back(symbols.size());
  };
  for (int c = 0; c < 3; ++c) {
    std::vector<uint32_t> symbols;
    const int n = 200 + c * 150;
    for (int i = 0; i < n; ++i) {
      symbols.push_back(static_cast<uint32_t>(rng.UniformU64(1 + c * 40)));
    }
    add(symbols);
  }
  // A hot 1-bit symbol and a Fibonacci-weighted tail (codes to ~17 bits),
  // then the rarest symbol followed by 0..63 hot ones.
  std::vector<uint32_t> body;
  uint32_t weight = 1, next = 1;
  for (uint32_t s = 0; s < 16; ++s) {
    for (uint32_t r = 0; r < weight; ++r) {
      body.insert(body.end(), {100 + s, 7, 7});
    }
    const uint32_t sum = weight + next;
    weight = next;
    next = sum;
  }
  for (int trailing = 0; trailing < 64; trailing += 7) {
    std::vector<uint32_t> symbols = body;
    symbols.push_back(100);
    symbols.insert(symbols.end(), static_cast<size_t>(trailing), 7u);
    add(symbols);
  }
  testing::BlobMutator mutator(corpus, /*seed=*/0x4F);
  testing::ResetMaxSingleAlloc();
  size_t iter = 0;
  const auto stats = testing::RunFuzz(
      &mutator, testing::FuzzIterations(), [&](const std::string& blob) {
        const uint64_t count = counts[iter++ % counts.size()];
        util::BitReader bits(blob.data(), blob.size());
        util::BitReader ref_bits(blob.data(), blob.size());
        auto result = compress::HuffmanCodec::Decode(&bits, count);
        auto want = testing::ReferenceHuffmanDecode(&ref_bits, count);
        ASSERT_EQ(result.ok(), want.ok());
        if (want.ok()) {
          EXPECT_EQ(*result, *want);
        } else {
          EXPECT_EQ(result.status().code(), want.status().code());
          EXPECT_EQ(result.status().message(), want.status().message());
        }
      });
  EXPECT_EQ(stats.oversize_allocs, 0);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

// ----- Regression blobs for the specific defects this PR fixes ---------

// Huffman symbol counts used to reach out.reserve() unchecked: a valid
// stream decoded with an inflated count reserved count * 4 bytes before
// discovering the payload was short.
TEST(HuffmanRegressionTest, InflatedCountRejectedBeforeAllocation) {
  std::vector<uint32_t> symbols(64, 7);
  util::BitWriter writer;
  ASSERT_TRUE(compress::HuffmanCodec::Encode(symbols, &writer).ok());
  const std::string blob = writer.Finish();
  util::BitReader reader(blob.data(), blob.size());
  testing::ResetMaxSingleAlloc();
  auto result =
      compress::HuffmanCodec::Decode(&reader, uint64_t{1} << 30);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  // The 4 GiB reserve must not have been attempted.
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

// The 32-bit table-size field used to size a vector of 16-byte entries with
// only a <= 2^28 sanity cap: a 5-byte stream could demand a 4 GiB table.
TEST(HuffmanRegressionTest, TableSizeBombRejectedBeforeAllocation) {
  util::BitWriter writer;
  writer.WriteBits(uint64_t{1} << 27, 32);  // Passes the old sanity cap.
  writer.WriteBits(0, 8);                   // Far too little payload.
  const std::string blob = writer.Finish();
  util::BitReader reader(blob.data(), blob.size());
  testing::ResetMaxSingleAlloc();
  auto result = compress::HuffmanCodec::Decode(&reader, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

// The parallel wrapper sized its chunk-metadata vector straight from the
// header's chunk count; rows <= 2^28 let a ~40 KiB blob demand a 6 GiB
// metadata table. The count must be covered by the remaining payload
// (16 bytes per chunk).
TEST(ParallelRegressionTest, ChunkCountBombRejectedBeforeAllocation) {
  util::ThreadPool pool(2);
  ParallelCompressor compressor(Backend::kSz, &pool, 4);
  util::ByteWriter header;
  header.PutU32(0x45504152);  // "EPAR"
  header.PutU8(static_cast<uint8_t>(Backend::kSz));
  header.PutShape({int64_t{1} << 28});
  header.PutU64(uint64_t{1} << 28);  // num_chunks == rows: passes old check.
  std::string blob = header.Finish();
  // Enough trailing payload that the shape passes the plausibility bound
  // but nowhere near 2^28 * 16 bytes of chunk headers.
  blob.append(40960, '\0');
  testing::ResetMaxSingleAlloc();
  auto result = compressor.Decompress(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

// A rank-0 shape passes the per-dimension checks (there are none), and the
// wrapper then read its leading dimension out of an empty shape. Mutated
// blobs reached this at 5000 fuzz iterations.
TEST(ParallelRegressionTest, RankZeroShapeRejected) {
  util::ThreadPool pool(2);
  ParallelCompressor compressor(Backend::kSz, &pool, 4);
  util::ByteWriter header;
  header.PutU32(0x45504152);  // "EPAR"
  header.PutU8(static_cast<uint8_t>(Backend::kSz));
  header.PutShape({});
  header.PutU64(1);
  std::string blob = header.Finish();
  blob.append(64, '\0');
  auto result = compressor.Decompress(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace errorflow
