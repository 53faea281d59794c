// Pluggable entropy-codec tests: registry behavior, randomized round
// trips for both codecs over adversarial symbol streams, the
// CompressBound / zero-realloc contract, codec negotiation through every
// compressor backend, and bit-exact decode of checked-in legacy
// (pre-codec-byte) streams.
#include "compress/codec/codec.h"

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "compress/codec/huffman.h"
#include "compress/codec/lz77.h"
#include "compress/compressor.h"
#include "compress/parallel.h"
#include "compress/sz.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "testing/test_util.h"
#include "util/bitstream.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace errorflow {
namespace compress {
namespace {

using tensor::Tensor;

TEST(CodecRegistryTest, SingletonsAndNames) {
  const EntropyCodec* huff = GetCodec(CodecId::kHuffman);
  const EntropyCodec* lz = GetCodec(CodecId::kLz77Huffman);
  ASSERT_NE(huff, nullptr);
  ASSERT_NE(lz, nullptr);
  EXPECT_EQ(huff->id(), CodecId::kHuffman);
  EXPECT_EQ(lz->id(), CodecId::kLz77Huffman);
  EXPECT_STREQ(huff->name(), "huffman");
  EXPECT_STREQ(lz->name(), "lz77");
  // Singletons: repeated lookups return the same instance.
  EXPECT_EQ(huff, GetCodec(CodecId::kHuffman));
  EXPECT_EQ(AllCodecs().size(), 2u);
}

TEST(CodecRegistryTest, CodecFromByteAcceptsKnownRejectsUnknown) {
  for (CodecId id : AllCodecs()) {
    auto codec = CodecFromByte(static_cast<uint8_t>(id));
    ASSERT_TRUE(codec.ok());
    EXPECT_EQ((*codec)->id(), id);
  }
  EXPECT_FALSE(CodecFromByte(2).ok());
  EXPECT_FALSE(CodecFromByte(0xFF).ok());
}

TEST(CodecRegistryTest, ParseCodecName) {
  ASSERT_TRUE(ParseCodecName("huffman").ok());
  EXPECT_EQ(*ParseCodecName("huffman"), CodecId::kHuffman);
  ASSERT_TRUE(ParseCodecName("lz77").ok());
  EXPECT_EQ(*ParseCodecName("lz77"), CodecId::kLz77Huffman);
  EXPECT_FALSE(ParseCodecName("deflate").ok());
  EXPECT_FALSE(ParseCodecName("").ok());
}

// ---- Round-trip property tests -----------------------------------------

std::vector<std::vector<uint32_t>> AdversarialInputs() {
  std::vector<std::vector<uint32_t>> inputs;
  inputs.push_back({});                      // Empty stream.
  inputs.push_back({7});                     // Single symbol.
  inputs.push_back({0xFFFFFFFFu});           // mgard's escape symbol.
  inputs.push_back(std::vector<uint32_t>(5000, 0));  // One long run.
  {
    // Adversarial repetition: short period, so every position matches
    // everywhere (worst case for the hash chain), with an escape symbol
    // sprinkled in to keep the literal alphabet honest.
    std::vector<uint32_t> v;
    for (int i = 0; i < 4096; ++i) {
      v.push_back(static_cast<uint32_t>(i % 3));
      if (i % 97 == 0) v.push_back(0xFFFFFFFFu);
    }
    inputs.push_back(std::move(v));
  }
  {
    // Period just above kMinMatch with large symbol values.
    std::vector<uint32_t> v;
    for (int i = 0; i < 2000; ++i) {
      v.push_back(0x80000000u + static_cast<uint32_t>(i % 5));
    }
    inputs.push_back(std::move(v));
  }
  {
    // Incompressible: unique symbols (all-literal parse, the
    // CompressBound worst case).
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 3000; ++i) v.push_back(i * 2654435761u);
    inputs.push_back(std::move(v));
  }
  {
    // Skewed quantization-code-like distribution.
    util::Rng rng(11);
    std::vector<uint32_t> v;
    for (int i = 0; i < 10000; ++i) {
      const uint64_t r = rng.UniformU64(100);
      v.push_back(r < 80 ? 0u : static_cast<uint32_t>(r));
    }
    inputs.push_back(std::move(v));
  }
  return inputs;
}

class CodecRoundTripTest : public ::testing::TestWithParam<CodecId> {};

TEST_P(CodecRoundTripTest, AdversarialInputsRoundTrip) {
  const EntropyCodec* codec = GetCodec(GetParam());
  for (const auto& symbols : AdversarialInputs()) {
    util::BitWriter writer;
    EncodeStats stats;
    ASSERT_TRUE(codec->Encode(symbols, &writer, &stats).ok());
    const std::string blob = writer.Finish();
    EXPECT_LE(blob.size(), codec->CompressBound(symbols.size()))
        << codec->name() << " exceeded its bound on n=" << symbols.size();
    util::BitReader reader(blob.data(), blob.size());
    auto decoded = codec->Decode(&reader, symbols.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, symbols) << codec->name();
  }
}

// Fifty random streams, alphabets from 1 to 2^15 symbols.
std::vector<std::vector<uint32_t>> RandomizedInputs() {
  std::vector<std::vector<uint32_t>> inputs;
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformU64(4000));
    const uint32_t alphabet =
        1u + static_cast<uint32_t>(rng.UniformU64(1u << (trial % 16)));
    std::vector<uint32_t> symbols(n);
    for (auto& s : symbols) {
      s = static_cast<uint32_t>(rng.UniformU64(alphabet));
    }
    inputs.push_back(std::move(symbols));
  }
  return inputs;
}

TEST_P(CodecRoundTripTest, RandomizedRoundTrips) {
  const EntropyCodec* codec = GetCodec(GetParam());
  for (const auto& symbols : RandomizedInputs()) {
    const size_t n = symbols.size();
    util::BitWriter writer;
    ASSERT_TRUE(codec->Encode(symbols, &writer).ok());
    const std::string blob = writer.Finish();
    ASSERT_LE(blob.size(), codec->CompressBound(n));
    util::BitReader reader(blob.data(), blob.size());
    auto decoded = codec->Decode(&reader, n);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(*decoded, symbols);
  }
}

TEST_P(CodecRoundTripTest, EncodeIntoPreallocatedBufferNeverReallocates) {
  const EntropyCodec* codec = GetCodec(GetParam());
  for (const auto& symbols : AdversarialInputs()) {
    util::BitWriter writer;
    writer.Reserve(codec->CompressBound(symbols.size()));
    const size_t capacity_before = writer.capacity_bytes();
    ASSERT_TRUE(codec->Encode(symbols, &writer).ok());
    // The encode appends at most CompressBound bytes, so the up-front
    // reservation absorbs every write: zero reallocations on the hot path.
    EXPECT_EQ(writer.capacity_bytes(), capacity_before)
        << codec->name() << " reallocated on n=" << symbols.size();
  }
}

TEST_P(CodecRoundTripTest, WrongCountIsCorruptionNotCrash) {
  const EntropyCodec* codec = GetCodec(GetParam());
  std::vector<uint32_t> symbols(100, 3);
  symbols[50] = 9;
  util::BitWriter writer;
  ASSERT_TRUE(codec->Encode(symbols, &writer).ok());
  const std::string blob = writer.Finish();
  // A count the stream cannot supply must be corruption, never a crash.
  // (Huffman is a prefix code, so a SMALLER count decodes a prefix by
  // design; lz77's token framing additionally rejects every wrong count.)
  std::vector<uint64_t> counts = {101, 1000000};
  if (GetParam() == CodecId::kLz77Huffman) {
    counts.insert(counts.end(), {0, 1, 99});
  }
  for (uint64_t count : counts) {
    util::BitReader reader(blob.data(), blob.size());
    auto decoded = codec->Decode(&reader, count);
    EXPECT_FALSE(decoded.ok()) << codec->name() << " count=" << count;
  }
}

TEST(Lz77CodecTest, MatchLayerBeatsPlainHuffmanOnRepetitiveStream) {
  // A periodic stream with a wide-enough alphabet that plain Huffman
  // cannot get near 1 bit/symbol, while the match layer collapses it.
  std::vector<uint32_t> symbols;
  for (int i = 0; i < 32768; ++i) {
    symbols.push_back(static_cast<uint32_t>(i % 64));
  }
  auto encoded_size = [&](CodecId id) {
    util::BitWriter w;
    EXPECT_TRUE(GetCodec(id)->Encode(symbols, &w).ok());
    return w.Finish().size();
  };
  const size_t huff = encoded_size(CodecId::kHuffman);
  const size_t lz = encoded_size(CodecId::kLz77Huffman);
  EXPECT_LT(lz * 5, huff) << "lz77 " << lz << " vs huffman " << huff;
}

TEST(Lz77CodecTest, EncodeStatsAccountForEveryOutputBit) {
  // A random 256-symbol block tiled 20 times: order-1 context modeling
  // cannot predict inside the block (it is random), so only the match
  // layer collapses the repeats — guaranteeing match tokens in the stats.
  util::Rng rng(77);
  std::vector<uint32_t> block;
  for (int i = 0; i < 256; ++i) {
    block.push_back(static_cast<uint32_t>(rng.UniformU64(1u << 16)));
  }
  std::vector<uint32_t> symbols;
  for (int rep = 0; rep < 20; ++rep) {
    symbols.insert(symbols.end(), block.begin(), block.end());
  }
  util::BitWriter writer;
  EncodeStats stats;
  ASSERT_TRUE(
      GetCodec(CodecId::kLz77Huffman)->Encode(symbols, &writer, &stats).ok());
  EXPECT_EQ(stats.overhead_bits + stats.payload_bits, writer.bit_count());
  EXPECT_GT(stats.matches, 0u);
  EXPECT_EQ(stats.literals + stats.match_symbols, symbols.size());
}

// ---- Pinned encoder output ----------------------------------------------

// FNV-1a over the eight little-endian bytes of `v`.
uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t MixBytes(uint64_t h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

// Every stream the codec tests encode: the adversarial and randomized
// inputs above plus the two Lz77CodecTest streams.
std::vector<std::vector<uint32_t>> PinnedInputs() {
  std::vector<std::vector<uint32_t>> inputs = AdversarialInputs();
  for (auto& v : RandomizedInputs()) inputs.push_back(std::move(v));
  std::vector<uint32_t> periodic;
  for (int i = 0; i < 32768; ++i) {
    periodic.push_back(static_cast<uint32_t>(i % 64));
  }
  inputs.push_back(std::move(periodic));
  util::Rng rng(77);
  std::vector<uint32_t> block, tiled;
  for (int i = 0; i < 256; ++i) {
    block.push_back(static_cast<uint32_t>(rng.UniformU64(1u << 16)));
  }
  for (int rep = 0; rep < 20; ++rep) {
    tiled.insert(tiled.end(), block.begin(), block.end());
  }
  inputs.push_back(std::move(tiled));
  return inputs;
}

// What a Huffman tie-break cannot move: per stream, the encoded bit count
// and its table/payload split; for lz77 also the match statistics and the
// 60-byte header (token counts and the 13 per-context literal counts),
// which the match parse alone sets. Pinned from the encoder as it was
// when its literal cost model still used hash maps and its Huffman stage
// still took leaves in hash-map order: the flat cost model keeps lz77's
// parse, and every optimal Huffman code costs the same bits.
TEST(CodecGoldenTest, LengthsAndLz77ParseArePinned) {
  uint64_t huffman = kFnvBasis, lz77 = kFnvBasis;
  for (const auto& symbols : PinnedInputs()) {
    for (CodecId id : AllCodecs()) {
      util::BitWriter writer;
      EncodeStats stats;
      ASSERT_TRUE(GetCodec(id)->Encode(symbols, &writer, &stats).ok());
      uint64_t& h = id == CodecId::kHuffman ? huffman : lz77;
      h = Mix(h, writer.bit_count());
      h = Mix(h, stats.overhead_bits);
      h = Mix(h, stats.payload_bits);
      if (id == CodecId::kLz77Huffman) {
        h = Mix(h, stats.literals);
        h = Mix(h, stats.matches);
        h = Mix(h, stats.match_symbols);
        h = MixBytes(h, writer.Finish().substr(0, 60));
      }
    }
  }
  EXPECT_EQ(huffman, 0x33443816ca1b8965ull) << std::hex << huffman;
  EXPECT_EQ(lz77, 0x64cfab20398fe506ull) << std::hex << lz77;
}

// The full output bytes. Leaves enter the Huffman tree in symbol order, so
// these digests hold on any standard library; a change to them changes
// what every new stream looks like on the wire.
TEST(CodecGoldenTest, OutputBytesArePinned) {
  uint64_t huffman = kFnvBasis, lz77 = kFnvBasis;
  for (const auto& symbols : PinnedInputs()) {
    for (CodecId id : AllCodecs()) {
      util::BitWriter writer;
      ASSERT_TRUE(GetCodec(id)->Encode(symbols, &writer).ok());
      uint64_t& h = id == CodecId::kHuffman ? huffman : lz77;
      h = MixBytes(h, writer.Finish());
    }
  }
  EXPECT_EQ(huffman, 0x2783dc61380a1642ull) << std::hex << huffman;
  EXPECT_EQ(lz77, 0x3c76f1d8b0077625ull) << std::hex << lz77;
}

// ---- Codec negotiation through the compressor backends ------------------

// gtest names each instance with a byte dump of its parameter, so the
// struct carries explicit zeroed tail bytes instead of padding: otherwise
// the dump, and with it the listed test name, shows leftover heap bytes
// that change from run to run.
struct BackendCodecCase {
  Backend backend;
  CodecId codec;
  uint8_t reserved[3] = {};
};
static_assert(std::has_unique_object_representations_v<BackendCodecCase>);

class BackendCodecTest : public ::testing::TestWithParam<BackendCodecCase> {};

TEST_P(BackendCodecTest, RoundTripsWithinBound) {
  auto compressor = MakeCompressor(GetParam().backend, GetParam().codec);
  const Tensor data = testing::SmoothField2d(64, 48, 5);
  const double tol = 1e-3;
  auto comp = compressor->Compress(data, ErrorBound::AbsLinf(tol));
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  auto dec = compressor->Decompress(comp->blob);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  ASSERT_EQ(dec->data.size(), data.size());
  for (int64_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(dec->data[i], data[i], tol);
  }
}

TEST_P(BackendCodecTest, DecodeIsCodecAgnostic) {
  // The blob self-describes its codec; a compressor constructed with the
  // OTHER codec must decode it identically.
  auto writer = MakeCompressor(GetParam().backend, GetParam().codec);
  const CodecId other = GetParam().codec == CodecId::kHuffman
                            ? CodecId::kLz77Huffman
                            : CodecId::kHuffman;
  auto reader = MakeCompressor(GetParam().backend, other);
  const Tensor data = testing::SmoothField2d(32, 32, 6);
  auto comp = writer->Compress(data, ErrorBound::AbsLinf(1e-3));
  ASSERT_TRUE(comp.ok());
  auto via_writer = writer->Decompress(comp->blob);
  auto via_reader = reader->Decompress(comp->blob);
  ASSERT_TRUE(via_writer.ok());
  ASSERT_TRUE(via_reader.ok());
  for (int64_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(via_writer->data[i], via_reader->data[i]);
  }
}

TEST_P(BackendCodecTest, ChunkedContainerRoundTrips) {
  util::ThreadPool pool(2);
  ParallelCompressor compressor(GetParam().backend, &pool,
                                /*min_chunk_rows=*/8, GetParam().codec);
  const Tensor data = testing::SmoothField2d(96, 40, 7);
  const double tol = 1e-3;
  auto comp = compressor.Compress(data, ErrorBound::AbsLinf(tol));
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  auto dec = compressor.Decompress(comp->blob);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  for (int64_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(dec->data[i], data[i], tol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, BackendCodecTest,
    ::testing::Values(BackendCodecCase{Backend::kSz, CodecId::kHuffman},
                      BackendCodecCase{Backend::kSz, CodecId::kLz77Huffman},
                      BackendCodecCase{Backend::kZfp, CodecId::kHuffman},
                      BackendCodecCase{Backend::kZfp, CodecId::kLz77Huffman},
                      BackendCodecCase{Backend::kMgard, CodecId::kHuffman},
                      BackendCodecCase{Backend::kMgard,
                                       CodecId::kLz77Huffman}),
    [](const ::testing::TestParamInfo<BackendCodecCase>& info) {
      return std::string(BackendToString(info.param.backend)) + "_" +
             CodecIdToString(info.param.codec);
    });

INSTANTIATE_TEST_SUITE_P(All, CodecRoundTripTest,
                         ::testing::Values(CodecId::kHuffman,
                                           CodecId::kLz77Huffman),
                         [](const ::testing::TestParamInfo<CodecId>& info) {
                           return std::string(CodecIdToString(info.param));
                         });

TEST(CodecNegotiationTest, SzBlobCarriesCodecByte) {
  const Tensor data = testing::SmoothField2d(16, 16, 8);
  for (CodecId id : AllCodecs()) {
    auto compressor = MakeCompressor(Backend::kSz, id);
    auto comp = compressor->Compress(data, ErrorBound::AbsLinf(1e-3));
    ASSERT_TRUE(comp.ok());
    ASSERT_GT(comp->blob.size(), 5u);
    EXPECT_EQ(std::string(comp->blob, 0, 4), std::string("2SZE"));
    EXPECT_EQ(static_cast<uint8_t>(comp->blob[4]), static_cast<uint8_t>(id));
  }
}

// ---- Legacy (pre-codec-byte) streams ------------------------------------

// Checked-in EZS1 blob: shape {3}, eb = 0.5, zero escapes, three
// quantization codes zigzag(+1) = 2. The Lorenzo chain reconstructs the
// exact field {1, 2, 3}.
const char kLegacySzBlob[] =
    "\x31\x53\x5a\x45\x01\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\xe0\x3f\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00"
    "\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x02\x04\x00";
constexpr size_t kLegacySzBlobLen = sizeof(kLegacySzBlob) - 1;

// Checked-in EMG2 blob: 4x4 grid, delta = 0.25, zero hierarchy levels (16
// coarse coefficients), no escapes or patches; coefficient i quantizes to
// code 2i, so the reconstruction is exactly {0, 1, ..., 15}.
const char kLegacyMgardBlob[] =
    "\x32\x47\x4d\x45\x02\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x04"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xd0\x3f\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x10\x00\x00\x00\x00\x10\x00\x00\x00\x10\x40\x00\x00"
    "\x00\x81\x00\x00\x00\x03\x04\x00\x00\x00\x10\x10\x00\x00\x00\x50\x40"
    "\x00\x00\x01\x81\x00\x00\x00\x07\x04\x00\x00\x00\x20\x10\x00\x00\x00"
    "\x90\x40\x00\x00\x02\x81\x00\x00\x00\x0b\x04\x00\x00\x00\x30\x10\x00"
    "\x00\x00\xd0\x40\x00\x00\x03\x81\x00\x00\x00\x0f\x04\x01\x23\x45\x67"
    "\x89\xab\xcd\xef";
constexpr size_t kLegacyMgardBlobLen = sizeof(kLegacyMgardBlob) - 1;

TEST(LegacyStreamTest, Ezs1DecodesBitExactly) {
  auto compressor = MakeCompressor(Backend::kSz, CodecId::kLz77Huffman);
  auto dec =
      compressor->Decompress(std::string(kLegacySzBlob, kLegacySzBlobLen));
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  ASSERT_EQ(dec->data.size(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(dec->data[i], static_cast<float>(i + 1));
  }
}

TEST(LegacyStreamTest, Emg2DecodesBitExactly) {
  auto compressor = MakeCompressor(Backend::kMgard, CodecId::kLz77Huffman);
  auto dec = compressor->Decompress(
      std::string(kLegacyMgardBlob, kLegacyMgardBlobLen));
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  ASSERT_EQ(dec->data.size(), 16);
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(dec->data[i], static_cast<float>(i));
  }
}

TEST(LegacyStreamTest, NewEncodersNeverEmitLegacyMagic) {
  const Tensor data = testing::SmoothField2d(8, 8, 9);
  for (Backend b : {Backend::kSz, Backend::kMgard}) {
    auto compressor = MakeCompressor(b);
    auto comp = compressor->Compress(data, ErrorBound::AbsLinf(1e-3));
    ASSERT_TRUE(comp.ok());
    EXPECT_NE(std::memcmp(comp->blob.data(), kLegacySzBlob, 4), 0);
    EXPECT_NE(std::memcmp(comp->blob.data(), kLegacyMgardBlob, 4), 0);
  }
}

// The per-codec counters (`errorflow.compress.codec.<name>.*`) advance by
// exactly one call's worth on each Compress and Decompress: the symbol
// count, the EncodeStats bit split and, for lz77, the parse statistics.
TEST(CodecMetricsTest, CountersAdvanceByEachCall) {
  const Tensor data = testing::SmoothField2d(32, 24, 9);
  const double eb = 1e-3;
  const LorenzoCodes quantized = LorenzoQuantize(data.data(), 1, 32, 24, eb);
  auto& registry = obs::MetricsRegistry::Global();
  for (CodecId id : AllCodecs()) {
    SCOPED_TRACE(CodecIdToString(id));
    util::BitWriter writer;
    EncodeStats stats;
    ASSERT_TRUE(GetCodec(id)->Encode(quantized.codes, &writer, &stats).ok());
    const std::string prefix =
        std::string("errorflow.compress.codec.") + CodecIdToString(id) + ".";
    std::vector<std::pair<std::string, uint64_t>> encode_deltas = {
        {"encode_calls", 1},
        {"encode_symbols", quantized.codes.size()},
        {"encode_overhead_bits", stats.overhead_bits},
        {"encode_payload_bits", stats.payload_bits}};
    if (id == CodecId::kLz77Huffman) {
      encode_deltas.push_back({"literal_tokens", stats.literals});
      encode_deltas.push_back({"match_tokens", stats.matches});
      encode_deltas.push_back({"match_symbols", stats.match_symbols});
    }
    const std::vector<std::pair<std::string, uint64_t>> decode_deltas = {
        {"decode_calls", 1}, {"decode_symbols", quantized.codes.size()}};
    auto compressor = MakeCompressor(Backend::kSz, id);
    for (int call = 0; call < 2; ++call) {
      std::vector<uint64_t> before;
      for (const auto& [metric, delta] : encode_deltas) {
        before.push_back(registry.CounterValue(prefix + metric));
      }
      auto comp = compressor->Compress(data, ErrorBound::AbsLinf(eb));
      ASSERT_TRUE(comp.ok());
      for (size_t m = 0; m < encode_deltas.size(); ++m) {
        EXPECT_EQ(registry.CounterValue(prefix + encode_deltas[m].first),
                  before[m] + encode_deltas[m].second)
            << encode_deltas[m].first;
      }
      before.clear();
      for (const auto& [metric, delta] : decode_deltas) {
        before.push_back(registry.CounterValue(prefix + metric));
      }
      ASSERT_TRUE(compressor->Decompress(comp->blob).ok());
      for (size_t m = 0; m < decode_deltas.size(); ++m) {
        EXPECT_EQ(registry.CounterValue(prefix + decode_deltas[m].first),
                  before[m] + decode_deltas[m].second)
            << decode_deltas[m].first;
      }
    }
  }
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
