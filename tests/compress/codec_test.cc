// Entropy-codec tests: registry behavior, round trips over adversarial
// and randomized symbol streams (Huffman encoded here, lz77 from the
// stored output of its encoder in testdata/lz77_round_trip.bin), the
// Huffman CompressBound / zero-realloc contract, the codec byte through
// every compressor backend, and bit-exact decode of checked-in legacy
// (pre-codec-byte) streams.
#include "compress/codec/codec.h"

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "compress/codec/huffman.h"
#include "compress/compressor.h"
#include "compress/parallel.h"
#include "compress/sz.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "testing/stored_payloads.h"
#include "testing/test_util.h"
#include "util/bitstream.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace errorflow {
namespace compress {
namespace {

using tensor::Tensor;

// Every codec byte a stream may carry.
constexpr CodecId kCodecs[] = {CodecId::kHuffman, CodecId::kLz77Huffman};

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
}

TEST(CodecRegistryTest, CodecFromByteAcceptsKnownRejectsUnknown) {
  for (CodecId id : kCodecs) {
    auto codec = CodecFromByte(static_cast<uint8_t>(id));
    ASSERT_TRUE(codec.ok());
    EXPECT_EQ((*codec)->id(), id);
  }
  EXPECT_FALSE(CodecFromByte(2).ok());
  EXPECT_FALSE(CodecFromByte(0xFF).ok());
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
    // everywhere (in lz77, long overlapping matches), with an escape
    // symbol sprinkled in to keep the literal alphabet honest.
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
    // Incompressible: unique symbols (Huffman's CompressBound worst
    // case; in lz77, all literals).
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

// Records of testdata/lz77_round_trip.bin: the lz77 streams of the
// adversarial inputs, then of the randomized inputs, then of
// WrongCountIsCorruptionNotCrash's stream.
constexpr size_t kAdversarialRecord = 0;
constexpr size_t kRandomizedRecord = 8;
constexpr size_t kWrongCountRecord = 58;

class CodecRoundTripTest : public ::testing::TestWithParam<CodecId> {
 protected:
  // `symbols` as a stream of this instance's codec: Huffman encodes them
  // here; an lz77 stream is the stored encoder output in `record`.
  std::string StreamOf(const std::vector<uint32_t>& symbols, size_t record) {
    if (GetParam() == CodecId::kHuffman) {
      util::BitWriter writer;
      EXPECT_TRUE(HuffmanCodec::Encode(symbols, &writer).ok());
      std::string blob = writer.Finish();
      EXPECT_LE(blob.size(), HuffmanCodec::CompressBound(symbols.size()))
          << "exceeded the bound on n=" << symbols.size();
      return blob;
    }
    static const std::vector<testing::StoredPayload> stored =
        testing::ReadStoredPayloads("lz77_round_trip.bin");
    if (record >= stored.size() || stored[record].count != symbols.size()) {
      ADD_FAILURE() << "no stored lz77 stream " << record << " of "
                    << symbols.size() << " symbols";
      return "";
    }
    return stored[record].bytes;
  }
};

TEST_P(CodecRoundTripTest, AdversarialInputsRoundTrip) {
  const EntropyCodec* codec = GetCodec(GetParam());
  const std::vector<std::vector<uint32_t>> inputs = AdversarialInputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string blob = StreamOf(inputs[i], kAdversarialRecord + i);
    util::BitReader reader(blob.data(), blob.size());
    auto decoded = codec->Decode(&reader, inputs[i].size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, inputs[i]) << codec->name();
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
  const std::vector<std::vector<uint32_t>> inputs = RandomizedInputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string blob = StreamOf(inputs[i], kRandomizedRecord + i);
    util::BitReader reader(blob.data(), blob.size());
    auto decoded = codec->Decode(&reader, inputs[i].size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(*decoded, inputs[i]);
  }
}

TEST_P(CodecRoundTripTest, WrongCountIsCorruptionNotCrash) {
  const EntropyCodec* codec = GetCodec(GetParam());
  std::vector<uint32_t> symbols(100, 3);
  symbols[50] = 9;
  const std::string blob = StreamOf(symbols, kWrongCountRecord);
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

// Encode reserves CompressBound bytes up front, so a writer that already
// holds that much never reallocates during the encode.
TEST(HuffmanEncodeTest, EncodeIntoPreallocatedBufferNeverReallocates) {
  for (const auto& symbols : AdversarialInputs()) {
    util::BitWriter writer;
    writer.Reserve(HuffmanCodec::CompressBound(symbols.size()));
    const size_t capacity_before = writer.capacity_bytes();
    ASSERT_TRUE(HuffmanCodec::Encode(symbols, &writer).ok());
    EXPECT_EQ(writer.capacity_bytes(), capacity_before)
        << "reallocated on n=" << symbols.size();
  }
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

// Every stream the Huffman tests encode: the adversarial and randomized
// inputs above plus a periodic stream and a random block tiled 20 times.
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
// and its table/payload split. Pinned from the encoder as it was when its
// Huffman stage still took leaves in hash-map order: every optimal
// Huffman code costs the same bits.
TEST(CodecGoldenTest, HuffmanLengthsArePinned) {
  uint64_t huffman = kFnvBasis;
  for (const auto& symbols : PinnedInputs()) {
    util::BitWriter writer;
    EncodeStats stats;
    ASSERT_TRUE(HuffmanCodec::Encode(symbols, &writer, &stats).ok());
    huffman = Mix(huffman, writer.bit_count());
    huffman = Mix(huffman, stats.overhead_bits);
    huffman = Mix(huffman, stats.payload_bits);
  }
  EXPECT_EQ(huffman, 0x33443816ca1b8965ull) << std::hex << huffman;
}

// The full output bytes. Leaves enter the Huffman tree in symbol order, so
// this digest holds on any standard library; a change to it changes what
// every new stream looks like on the wire.
TEST(CodecGoldenTest, OutputBytesArePinned) {
  uint64_t huffman = kFnvBasis;
  for (const auto& symbols : PinnedInputs()) {
    util::BitWriter writer;
    ASSERT_TRUE(HuffmanCodec::Encode(symbols, &writer).ok());
    huffman = MixBytes(huffman, writer.Finish());
  }
  EXPECT_EQ(huffman, 0x2783dc61380a1642ull) << std::hex << huffman;
}

// ---- The codec byte through the compressor backends ---------------------

// gtest names each instance with a byte dump of its parameter, so the
// struct carries explicit zeroed tail bytes instead of padding: otherwise
// the dump, and with it the listed test name, shows leftover heap bytes
// that change from run to run. Instances are named <backend>_huffman:
// Huffman is the entropy stage SZ and MGARD write (zfp has none).
struct BackendCodecCase {
  Backend backend;
  uint8_t reserved[4] = {};
};
static_assert(std::has_unique_object_representations_v<BackendCodecCase>);

class BackendCodecTest : public ::testing::TestWithParam<BackendCodecCase> {};

TEST_P(BackendCodecTest, RoundTripsWithinBound) {
  auto compressor = MakeCompressor(GetParam().backend);
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
  // The blob self-describes its codec; a compressor that never wrote it
  // must decode it exactly as the writer does.
  auto writer = MakeCompressor(GetParam().backend);
  auto reader = MakeCompressor(GetParam().backend);
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
                                /*min_chunk_rows=*/8);
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
    ::testing::Values(BackendCodecCase{Backend::kSz},
                      BackendCodecCase{Backend::kZfp},
                      BackendCodecCase{Backend::kMgard}),
    [](const ::testing::TestParamInfo<BackendCodecCase>& info) {
      return std::string(BackendToString(info.param.backend)) + "_huffman";
    });

INSTANTIATE_TEST_SUITE_P(All, CodecRoundTripTest, ::testing::ValuesIn(kCodecs),
                         [](const ::testing::TestParamInfo<CodecId>& info) {
                           return std::string(GetCodec(info.param)->name());
                         });

TEST(CodecNegotiationTest, SzBlobCarriesCodecByte) {
  const Tensor data = testing::SmoothField2d(16, 16, 8);
  auto compressor = MakeCompressor(Backend::kSz);
  auto comp = compressor->Compress(data, ErrorBound::AbsLinf(1e-3));
  ASSERT_TRUE(comp.ok());
  ASSERT_GT(comp->blob.size(), 5u);
  EXPECT_EQ(std::string(comp->blob, 0, 4), std::string("2SZE"));
  EXPECT_EQ(static_cast<uint8_t>(comp->blob[4]),
            static_cast<uint8_t>(CodecId::kHuffman));
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
  auto compressor = MakeCompressor(Backend::kSz);
  auto dec =
      compressor->Decompress(std::string(kLegacySzBlob, kLegacySzBlobLen));
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  ASSERT_EQ(dec->data.size(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(dec->data[i], static_cast<float>(i + 1));
  }
}

TEST(LegacyStreamTest, Emg2DecodesBitExactly) {
  auto compressor = MakeCompressor(Backend::kMgard);
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
// count and the EncodeStats bit split of the Huffman stream SZ writes,
// and, decoding a stored lz77 SZ blob, lz77's decode counters.
TEST(CodecMetricsTest, CountersAdvanceByEachCall) {
  const Tensor data = testing::SmoothField2d(32, 24, 9);
  const double eb = 1e-3;
  const LorenzoCodes quantized = LorenzoQuantize(data.data(), 1, 32, 24, eb);
  auto& registry = obs::MetricsRegistry::Global();
  util::BitWriter writer;
  EncodeStats stats;
  ASSERT_TRUE(HuffmanCodec::Encode(quantized.codes, &writer, &stats).ok());
  const std::string huffman = "errorflow.compress.codec.huffman.";
  const std::vector<std::pair<std::string, uint64_t>> encode_deltas = {
      {"encode_calls", 1},
      {"encode_symbols", quantized.codes.size()},
      {"encode_overhead_bits", stats.overhead_bits},
      {"encode_payload_bits", stats.payload_bits}};
  const std::vector<std::pair<std::string, uint64_t>> decode_deltas = {
      {"decode_calls", 1}, {"decode_symbols", quantized.codes.size()}};
  auto compressor = MakeCompressor(Backend::kSz);
  for (int call = 0; call < 2; ++call) {
    std::vector<uint64_t> before;
    for (const auto& [metric, delta] : encode_deltas) {
      before.push_back(registry.CounterValue(huffman + metric));
    }
    auto comp = compressor->Compress(data, ErrorBound::AbsLinf(eb));
    ASSERT_TRUE(comp.ok());
    for (size_t m = 0; m < encode_deltas.size(); ++m) {
      EXPECT_EQ(registry.CounterValue(huffman + encode_deltas[m].first),
                before[m] + encode_deltas[m].second)
          << encode_deltas[m].first;
    }
    before.clear();
    for (const auto& [metric, delta] : decode_deltas) {
      before.push_back(registry.CounterValue(huffman + metric));
    }
    ASSERT_TRUE(compressor->Decompress(comp->blob).ok());
    for (size_t m = 0; m < decode_deltas.size(); ++m) {
      EXPECT_EQ(registry.CounterValue(huffman + decode_deltas[m].first),
                before[m] + decode_deltas[m].second)
          << decode_deltas[m].first;
    }
  }

  // One lz77 decode per Decompress, of the same number of symbols each
  // time: at most one per element of the stored blob.
  const std::vector<testing::StoredPayload> stored =
      testing::ReadStoredPayloads("sz_lz77.blobs");
  ASSERT_FALSE(stored.empty());
  const std::string lz77 = "errorflow.compress.codec.lz77.";
  std::vector<uint64_t> symbol_deltas;
  for (int call = 0; call < 2; ++call) {
    const uint64_t calls = registry.CounterValue(lz77 + "decode_calls");
    const uint64_t symbols = registry.CounterValue(lz77 + "decode_symbols");
    ASSERT_TRUE(compressor->Decompress(stored[0].bytes).ok());
    EXPECT_EQ(registry.CounterValue(lz77 + "decode_calls"), calls + 1);
    symbol_deltas.push_back(registry.CounterValue(lz77 + "decode_symbols") -
                            symbols);
  }
  EXPECT_GT(symbol_deltas[0], 0u);
  EXPECT_LE(symbol_deltas[0], stored[0].count);
  EXPECT_EQ(symbol_deltas[1], symbol_deltas[0]);
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
