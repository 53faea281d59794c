// Differential tests: the table-driven Huffman decoder and the Lorenzo
// loops (scalar, and AVX-512 wavefronts where the host has them) against
// the retained element-by-element references (testing/codec_reference.h),
// on every kernel path. Symbols, floats and reader positions must agree
// bit for bit; on a bad stream both must fail with the same Status.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec/huffman.h"
#include "compress/compressor.h"
#include "compress/sz.h"
#include "gtest/gtest.h"
#include "testing/codec_reference.h"
#include "testing/test_util.h"
#include "util/bitstream.h"
#include "util/random.h"

namespace errorflow {
namespace compress {
namespace {

// ---- Huffman decode ------------------------------------------------------

std::string Encode(const std::vector<uint32_t>& symbols) {
  util::BitWriter writer;
  EXPECT_TRUE(HuffmanCodec::Encode(symbols, &writer).ok());
  return writer.Finish();
}

// Decodes `count` symbols of `stream` with both decoders and requires the
// same result: equal symbols and final position, or equal Status.
void ExpectSameDecode(const std::string& stream, uint64_t count,
                      const std::string& what) {
  util::BitReader fast(stream.data(), stream.size());
  util::BitReader ref(stream.data(), stream.size());
  auto got = HuffmanCodec::Decode(&fast, count);
  auto want = testing::ReferenceHuffmanDecode(&ref, count);
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": " << (got.ok() ? want.status() : got.status()).ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return;
  }
  EXPECT_EQ(*got, *want) << what;
  EXPECT_EQ(fast.BitsRemaining(), ref.BitsRemaining()) << what;
}

// A hot symbol (1-bit code) and a Fibonacci-skewed tail whose rarest codes
// run past the 12-bit table.
std::vector<uint32_t> HotWithLongTail(int tail_alphabet) {
  std::vector<uint32_t> symbols;
  uint64_t a = 1, b = 1;
  for (int s = 0; s < tail_alphabet; ++s) {
    for (uint64_t r = 0; r < a; ++r) {
      symbols.push_back(100 + static_cast<uint32_t>(s));
      symbols.push_back(7);
      symbols.push_back(7);
    }
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  return symbols;
}

std::vector<std::vector<uint32_t>> RandomStreams() {
  std::vector<std::vector<uint32_t>> streams;
  util::Rng rng(2024);
  for (int c = 0; c < 12; ++c) {
    std::vector<uint32_t> symbols;
    const int n = 1 + static_cast<int>(rng.UniformU64(6000));
    const uint64_t alphabet = uint64_t{1} << rng.UniformInt(0, 13);
    for (int i = 0; i < n; ++i) {
      // Geometric-ish magnitudes: the shape of quantization codes.
      const uint64_t v = rng.UniformU64(alphabet);
      symbols.push_back(static_cast<uint32_t>(v * v / alphabet));
    }
    streams.push_back(std::move(symbols));
  }
  streams.push_back(HotWithLongTail(22));
  {
    // Sparse alphabet: mgard's escape symbol among small codes.
    std::vector<uint32_t> symbols;
    for (int i = 0; i < 3000; ++i) {
      symbols.push_back(i % 97 == 0 ? 0xFFFFFFFFu
                                    : static_cast<uint32_t>(i % 5));
    }
    streams.push_back(std::move(symbols));
  }
  return streams;
}

void CheckRandomStreamsMatchReference() {
  int index = 0;
  for (const auto& symbols : RandomStreams()) {
    const std::string stream = Encode(symbols);
    ExpectSameDecode(stream, symbols.size(),
                     "stream " + std::to_string(index++));
  }
}

// Streams ending in a long code followed by 0..80 one-bit codes: the long
// code straddles or sits in each of the last 8 bytes, where the windowed
// decoder hands over to the checked step.
std::vector<std::vector<uint32_t>> TailLongCodeStreams(int tail_alphabet) {
  const std::vector<uint32_t> body = HotWithLongTail(tail_alphabet);
  std::vector<std::vector<uint32_t>> streams;
  for (int trailing = 0; trailing <= 80; ++trailing) {
    std::vector<uint32_t> symbols = body;
    symbols.push_back(100);  // The rarest tail symbol: the longest code.
    symbols.insert(symbols.end(), static_cast<size_t>(trailing), 7u);
    streams.push_back(std::move(symbols));
  }
  return streams;
}

void CheckLongCodesAtEveryTailOffsetMatchReference() {
  for (const auto& symbols : TailLongCodeStreams(20)) {
    const std::string stream = Encode(symbols);
    ExpectSameDecode(stream, symbols.size(),
                     "trailing " + std::to_string(symbols.size()));
    util::BitReader reader(stream.data(), stream.size());
    auto decoded = HuffmanCodec::Decode(&reader, symbols.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, symbols);
  }
}

void CheckTruncatedStreamsFailLikeReference() {
  std::vector<std::vector<uint32_t>> inputs = TailLongCodeStreams(15);
  inputs.resize(9);
  inputs.push_back(RandomStreams()[3]);
  for (const auto& symbols : inputs) {
    const std::string stream = Encode(symbols);
    // Every cut in the last 80 bytes, a sample of the earlier ones.
    for (size_t len = 0; len < stream.size();
         len += len + 80 < stream.size() ? 37 : 1) {
      ExpectSameDecode(stream.substr(0, len), symbols.size(),
                       "truncated to " + std::to_string(len));
    }
    // An inflated count runs the decoder off the end of a whole stream.
    ExpectSameDecode(stream, symbols.size() + 9, "inflated count");
  }
}

void CheckInvalidCodeWordsFailLikeReference() {
  // An incomplete code, lengths {1, 14, 14}: "0" is symbol 7, "1" followed
  // by 13 zeros or by 12 zeros and a one are 8 and 9, and every other word
  // starting with "1" is invalid. Invalid words land at every position of
  // a long run of valid ones, inside the window and in the tail.
  for (int before = 0; before < 90; before += 3) {
    util::BitWriter w;
    w.WriteBits(3, 32);
    for (const auto& [symbol, length] :
         std::vector<std::pair<uint32_t, int>>{{7, 1}, {8, 14}, {9, 14}}) {
      w.WriteBits(symbol, 32);
      w.WriteBits(static_cast<uint64_t>(length), 6);
    }
    for (int i = 0; i < before; ++i) {
      // Symbol 9 every fourth position, symbol 7 between.
      if (i % 4 == 0) {
        w.WriteBits(0x2001, 14);
      } else {
        w.WriteBits(0, 1);
      }
    }
    w.WriteBits(0x3000, 14);
    for (int i = 0; i < 40; ++i) w.WriteBits(0, 1);
    const std::string stream = w.Finish();
    ExpectSameDecode(stream, static_cast<uint64_t>(before) + 41,
                     "invalid word after " + std::to_string(before));
  }
}

void CheckBitFlipsFailLikeReference() {
  util::Rng rng(31);
  const std::vector<uint32_t> symbols = HotWithLongTail(18);
  const std::string stream = Encode(symbols);
  for (int trial = 0; trial < 400; ++trial) {
    std::string flipped = stream;
    const size_t bit = rng.UniformU64(flipped.size() * 8);
    flipped[bit / 8] =
        static_cast<char>(flipped[bit / 8] ^ (0x80 >> (bit % 8)));
    ExpectSameDecode(flipped, symbols.size(),
                     "bit flip at " + std::to_string(bit));
  }
}

// Streams around the encoder's dense-count threshold: a maximum symbol of
// 2^16 - 1, 2^16 and 2^16 + 1 in a stream too short for 8n to pass 2^16,
// and 8n - 1, 8n and 8n + 1 in one long enough, so both counting paths
// and the switch between them write what the reference decodes.
std::vector<std::vector<uint32_t>> DenseThresholdStreams() {
  std::vector<std::vector<uint32_t>> streams;
  util::Rng rng(77);
  for (const size_t n : {size_t{3000}, size_t{10000}}) {
    const uint64_t limit = std::max<uint64_t>(uint64_t{1} << 16, 8 * n);
    for (const uint64_t top : {limit - 1, limit, limit + 1}) {
      std::vector<uint32_t> symbols;
      for (size_t i = 0; i + 3 < n; ++i) {
        const uint64_t v = rng.UniformU64(64);
        symbols.push_back(static_cast<uint32_t>(v * v / 64));
      }
      symbols.insert(symbols.end(),
                     {static_cast<uint32_t>(top), 5u,
                      static_cast<uint32_t>(top)});
      streams.push_back(std::move(symbols));
    }
  }
  return streams;
}

void CheckDenseThresholdAlphabetsMatchReference() {
  for (const auto& symbols : DenseThresholdStreams()) {
    const std::string stream = Encode(symbols);
    const std::string what = "max " + std::to_string(symbols.back()) +
                             ", n " + std::to_string(symbols.size());
    ExpectSameDecode(stream, symbols.size(), what);
    util::BitReader reader(stream.data(), stream.size());
    auto decoded = HuffmanCodec::Decode(&reader, symbols.size());
    ASSERT_TRUE(decoded.ok()) << what;
    EXPECT_EQ(*decoded, symbols) << what;
  }
}

// The shape of an fp32 h2 batch's codes: half zeros (a 1-bit code) and
// about 2,500 distinct wide values whose 12- and 13-bit codes are past
// the root table; then each of its cuts near the end.
void CheckWideAlphabetMatchesReference() {
  util::Rng rng(4242);
  std::vector<uint32_t> symbols;
  for (int i = 0; i < 9216; ++i) {
    symbols.push_back(rng.UniformU64(2) == 0
                          ? 0u
                          : static_cast<uint32_t>(1 + rng.UniformU64(2600)) *
                                19u);
  }
  const std::string stream = Encode(symbols);
  ExpectSameDecode(stream, symbols.size(), "wide alphabet");
  util::BitReader reader(stream.data(), stream.size());
  auto decoded = HuffmanCodec::Decode(&reader, symbols.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, symbols);
  for (size_t cut = 1; cut <= 24; ++cut) {
    ExpectSameDecode(stream.substr(0, stream.size() - cut), symbols.size(),
                     "wide alphabet cut " + std::to_string(cut));
  }
}

// ---- Lorenzo loops -------------------------------------------------------

struct Field {
  std::string name;
  std::vector<int64_t> dims;  // slices, rows, cols
  std::vector<float> values;
};

float FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::vector<Field> EdgeFields() {
  std::vector<Field> fields;
  util::Rng rng(5);
  auto smooth = [&](int64_t slices, int64_t rows, int64_t cols) {
    std::vector<float> v;
    for (int64_t s = 0; s < slices; ++s) {
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
          v.push_back(static_cast<float>(std::sin(0.3 * i + 0.2 * j + s) +
                                         1e-3 * rng.Normal()));
        }
      }
    }
    return v;
  };
  fields.push_back({"smooth-3d", {5, 7, 9}, smooth(5, 7, 9)});
  fields.push_back({"smooth-2d", {1, 40, 9}, smooth(1, 40, 9)});
  fields.push_back({"row", {1, 1, 300}, smooth(1, 1, 300)});
  fields.push_back({"column", {1, 300, 1}, smooth(1, 300, 1)});
  fields.push_back({"single", {1, 1, 1}, {0.5f}});
  {
    // Specials sprinkled into a smooth field: signed zeros, NaNs with
    // payloads, infinities, subnormals, the float extremes, and jumps
    // whose residual codes pass 2^20.
    std::vector<float> v = smooth(3, 11, 13);
    const float specials[] = {
        0.0f,
        -0.0f,
        FromBits(0x7FC00001u),
        FromBits(0xFFA0BEEFu),
        FromBits(0x7F800001u),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        FromBits(0x00000001u),
        FromBits(0x807FFFFFu),
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest(),
        1e7f,
        -3e6f};
    for (size_t k = 0; k < v.size(); k += 7) {
      v[k] = specials[(k / 7) % (sizeof(specials) / sizeof(specials[0]))];
    }
    fields.push_back({"specials", {3, 11, 13}, std::move(v)});
  }
  {
    // A plane of 2^40 behind a plane of values near 1: the Lorenzo sum
    // adds and cancels 2^40 around small terms, rounding at 2^-12 on the
    // way, so any other order of the seven terms gives other bits.
    std::vector<float> v(2 * 8 * 10, 0x1p40f);
    for (size_t k = 80; k < v.size(); ++k) {
      v[k] = static_cast<float>(std::sin(0.1 * static_cast<double>(k)) +
                                rng.Uniform(-1e-3, 1e-3));
    }
    fields.push_back({"cancelling-planes", {2, 8, 10}, std::move(v)});
  }
  {
    std::vector<float> v(200, FromBits(0x7FC0BEEFu));
    fields.push_back({"all-nan", {1, 10, 20}, std::move(v)});
  }
  {
    std::vector<float> v(180);
    for (size_t k = 0; k < v.size(); ++k) {
      v[k] = (k % 2 == 0 ? -0.0f : 0.0f);
    }
    fields.push_back({"signed-zeros", {2, 9, 10}, std::move(v)});
  }
  {
    std::vector<float> v(150);
    for (size_t k = 0; k < v.size(); ++k) {
      v[k] = FromBits(static_cast<uint32_t>(k * 9973u) & 0x807FFFFFu);
    }
    fields.push_back({"subnormals", {1, 10, 15}, std::move(v)});
  }
  return fields;
}

// Tolerances: none (eb = 0 escapes everything), the subnormal range, and
// bins narrow and wide against the fields' unit scale.
const double kTolerances[] = {0.0, 1e-40, 1e-300, 1e-7, 1e-3, 0.25, 1e6};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void CheckQuantizeAndReconstructMatchReference() {
  bool saw_sparse = false, saw_bitmap = false;
  for (const Field& f : EdgeFields()) {
    const int64_t slices = f.dims[0], rows = f.dims[1], cols = f.dims[2];
    const int64_t n = slices * rows * cols;
    ASSERT_EQ(static_cast<int64_t>(f.values.size()), n) << f.name;
    for (const double eb : kTolerances) {
      SCOPED_TRACE(f.name + " eb " + std::to_string(eb));
      const LorenzoCodes got =
          LorenzoQuantize(f.values.data(), slices, rows, cols, eb);
      const LorenzoCodes want = testing::ReferenceLorenzoQuantize(
          f.values.data(), slices, rows, cols, eb);
      ASSERT_EQ(got.codes, want.codes);
      ASSERT_EQ(got.escape_indices, want.escape_indices);
      ASSERT_TRUE(SameBits(got.raw_values, want.raw_values));
      // SzCompressor's escape-location encoding for this many escapes.
      (want.escape_indices.size() * 4 <= (static_cast<size_t>(n) + 7) / 8
           ? saw_sparse
           : saw_bitmap) = true;

      std::vector<uint8_t> unpred(static_cast<size_t>(n), 0);
      for (const int64_t idx : want.escape_indices) unpred[idx] = 1;
      const char* raw = reinterpret_cast<const char*>(want.raw_values.data());
      std::vector<float> fast(static_cast<size_t>(n)), ref(fast.size());
      ASSERT_TRUE(LorenzoReconstruct(want.codes, unpred.data(), raw,
                                     want.raw_values.size(), slices, rows,
                                     cols, eb, fast.data())
                      .ok());
      ASSERT_TRUE(testing::ReferenceLorenzoReconstruct(
                      want.codes, unpred.data(), raw, want.raw_values.size(),
                      slices, rows, cols, eb, ref.data())
                      .ok());
      ASSERT_TRUE(SameBits(fast, ref));
    }
  }
  EXPECT_TRUE(saw_sparse);
  EXPECT_TRUE(saw_bitmap);
}

void CheckShortStreamsFailLikeReference() {
  const Field f = EdgeFields()[0];
  const int64_t slices = f.dims[0], rows = f.dims[1], cols = f.dims[2];
  const int64_t n = slices * rows * cols;
  const double eb = 1e-3;
  const LorenzoCodes q =
      testing::ReferenceLorenzoQuantize(f.values.data(), slices, rows, cols,
                                        eb);
  const std::vector<float> raw_values(8, 1.5f);
  const char* raw = reinterpret_cast<const char*>(raw_values.data());
  // Escape flags and counts that disagree with the stream: too many
  // escapes for the raw values, too few for the codes, and both.
  struct Mismatch {
    int escapes;
    uint64_t n_raw;
    size_t n_codes;
  };
  const Mismatch cases[] = {{8, 3, q.codes.size()},
                            {2, 8, q.codes.size()},
                            {0, 0, q.codes.size() - 1},
                            {5, 5, 0}};
  for (const Mismatch& m : cases) {
    std::vector<uint8_t> unpred(static_cast<size_t>(n), 0);
    for (int e = 0; e < m.escapes; ++e) {
      unpred[static_cast<size_t>(e * 31)] = 1;
    }
    const std::vector<uint32_t> codes(q.codes.begin(),
                                      q.codes.begin() + m.n_codes);
    std::vector<float> fast(static_cast<size_t>(n)), ref(fast.size());
    const Status got = LorenzoReconstruct(codes, unpred.data(), raw, m.n_raw,
                                          slices, rows, cols, eb, fast.data());
    const Status want = testing::ReferenceLorenzoReconstruct(
        codes, unpred.data(), raw, m.n_raw, slices, rows, cols, eb,
        ref.data());
    EXPECT_EQ(got.ok(), want.ok());
    EXPECT_EQ(got.code(), want.code());
    EXPECT_EQ(got.message(), want.message());
    if (want.ok()) {
      EXPECT_TRUE(SameBits(fast, ref));
    }
  }
}

void CheckSzBlobsDecodeLikeReference() {
  // Whole blobs, both escape-location encodings: the decoded floats equal
  // the reference reconstruction of the reference codes.
  auto sz = MakeCompressor(Backend::kSz, CodecId::kHuffman);
  for (const Field& f : EdgeFields()) {
    const int64_t slices = f.dims[0], rows = f.dims[1], cols = f.dims[2];
    const int64_t n = slices * rows * cols;
    tensor::Tensor data({slices, rows, cols}, f.values);
    for (const double eb : {1e-7, 1e-3, 0.25}) {
      SCOPED_TRACE(f.name + " eb " + std::to_string(eb));
      auto comp = sz->Compress(data, ErrorBound::AbsLinf(eb));
      ASSERT_TRUE(comp.ok()) << comp.status().ToString();
      auto dec = sz->Decompress(comp->blob);
      ASSERT_TRUE(dec.ok()) << dec.status().ToString();
      const LorenzoCodes q = testing::ReferenceLorenzoQuantize(
          f.values.data(), slices, rows, cols, eb);
      std::vector<uint8_t> unpred(static_cast<size_t>(n), 0);
      for (const int64_t idx : q.escape_indices) unpred[idx] = 1;
      std::vector<float> ref(static_cast<size_t>(n));
      ASSERT_TRUE(testing::ReferenceLorenzoReconstruct(
                      q.codes, unpred.data(),
                      reinterpret_cast<const char*>(q.raw_values.data()),
                      q.raw_values.size(), slices, rows, cols, eb,
                      ref.data())
                      .ok());
      EXPECT_EQ(std::memcmp(dec->data.data(), ref.data(),
                            ref.size() * sizeof(float)),
                0);
    }
  }
}

// Shapes for the wavefront lanes: planes of every width from 1 to 17 and
// from 31 to 33, as columns and as rows, so each lane of each masked tail
// chunk holds elements; an h2-shaped 1024 x 9 batch; a long stack of
// 16 x 16 planes, which several slices traverse at once; and spikes that
// escape at every lane position, with sNaN and infinities among them.
std::vector<Field> WavefrontFields() {
  std::vector<Field> fields;
  util::Rng rng(8);
  auto smooth = [&](int64_t slices, int64_t rows, int64_t cols) {
    std::vector<float> v;
    for (int64_t s = 0; s < slices; ++s) {
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
          v.push_back(static_cast<float>(
              std::cos(0.05 * i + 0.3 * j + 0.7 * s) + 1e-3 * rng.Normal()));
        }
      }
    }
    return v;
  };
  std::vector<int64_t> widths;
  for (int64_t w = 1; w <= 17; ++w) widths.push_back(w);
  for (int64_t w = 31; w <= 33; ++w) widths.push_back(w);
  for (const int64_t w : widths) {
    const std::string ws = std::to_string(w);
    fields.push_back({"cols-" + ws, {1, 11, w}, smooth(1, 11, w)});
    fields.push_back({"rows-" + ws, {1, w, 10}, smooth(1, w, 10)});
    fields.push_back({"stack-cols-" + ws, {3, 6, w}, smooth(3, 6, w)});
  }
  fields.push_back({"h2-batch", {1, 1024, 9}, smooth(1, 1024, 9)});
  fields.push_back({"plane-stack", {40, 16, 16}, smooth(40, 16, 16)});
  const float specials[] = {1e7f, -3e6f, FromBits(0x7F800001u),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            FromBits(0xFFC0BEEFu)};
  {
    // Row i escapes at column i % 33: every lane of chunks 0 to 4.
    std::vector<float> v = smooth(1, 70, 33);
    for (int64_t i = 0; i < 70; ++i) {
      v[static_cast<size_t>(i * 33 + i % 33)] = specials[i % 6];
    }
    fields.push_back({"escape-lanes-2d", {1, 70, 33}, std::move(v)});
  }
  {
    std::vector<float> v = smooth(6, 16, 16);
    for (int64_t s = 0; s < 6; ++s) {
      for (int64_t i = 0; i < 16; ++i) {
        v[static_cast<size_t>((s * 16 + i) * 16 + (s + i) % 16)] =
            specials[(s + i) % 6];
      }
    }
    fields.push_back({"escape-lanes-3d", {6, 16, 16}, std::move(v)});
  }
  return fields;
}

void CheckWavefrontShapesMatchReference() {
  for (const Field& f : WavefrontFields()) {
    const int64_t slices = f.dims[0], rows = f.dims[1], cols = f.dims[2];
    const int64_t n = slices * rows * cols;
    ASSERT_EQ(static_cast<int64_t>(f.values.size()), n) << f.name;
    for (const double eb : {1e-7, 1e-3, 0.25}) {
      SCOPED_TRACE(f.name + " eb " + std::to_string(eb));
      const LorenzoCodes got =
          LorenzoQuantize(f.values.data(), slices, rows, cols, eb);
      const LorenzoCodes want = testing::ReferenceLorenzoQuantize(
          f.values.data(), slices, rows, cols, eb);
      ASSERT_EQ(got.codes, want.codes);
      ASSERT_EQ(got.escape_indices, want.escape_indices);
      ASSERT_TRUE(SameBits(got.raw_values, want.raw_values));
      std::vector<uint8_t> unpred(static_cast<size_t>(n), 0);
      for (const int64_t idx : want.escape_indices) unpred[idx] = 1;
      const char* raw = reinterpret_cast<const char*>(want.raw_values.data());
      std::vector<float> fast(static_cast<size_t>(n)), ref(fast.size());
      ASSERT_TRUE(LorenzoReconstruct(want.codes, unpred.data(), raw,
                                     want.raw_values.size(), slices, rows,
                                     cols, eb, fast.data())
                      .ok());
      ASSERT_TRUE(testing::ReferenceLorenzoReconstruct(
                      want.codes, unpred.data(), raw, want.raw_values.size(),
                      slices, rows, cols, eb, ref.data())
                      .ok());
      ASSERT_TRUE(SameBits(fast, ref));
    }
  }
}

TEST(HuffmanDifferentialTest, RandomStreamsMatchReference) {
  testing::ForEachKernelPath(CheckRandomStreamsMatchReference);
}

TEST(HuffmanDifferentialTest, LongCodesAtEveryTailOffsetMatchReference) {
  testing::ForEachKernelPath(CheckLongCodesAtEveryTailOffsetMatchReference);
}

TEST(HuffmanDifferentialTest, TruncatedStreamsFailLikeReference) {
  testing::ForEachKernelPath(CheckTruncatedStreamsFailLikeReference);
}

TEST(HuffmanDifferentialTest, InvalidCodeWordsFailLikeReference) {
  testing::ForEachKernelPath(CheckInvalidCodeWordsFailLikeReference);
}

TEST(HuffmanDifferentialTest, BitFlipsFailLikeReference) {
  testing::ForEachKernelPath(CheckBitFlipsFailLikeReference);
}

TEST(HuffmanDifferentialTest, DenseThresholdAlphabetsMatchReference) {
  testing::ForEachKernelPath(CheckDenseThresholdAlphabetsMatchReference);
}

TEST(HuffmanDifferentialTest, WideAlphabetMatchesReference) {
  testing::ForEachKernelPath(CheckWideAlphabetMatchesReference);
}

TEST(LorenzoDifferentialTest, WavefrontShapesMatchReference) {
  testing::ForEachKernelPath(CheckWavefrontShapesMatchReference);
}

TEST(LorenzoDifferentialTest, QuantizeAndReconstructMatchReference) {
  testing::ForEachKernelPath(CheckQuantizeAndReconstructMatchReference);
}

TEST(LorenzoDifferentialTest, ShortStreamsFailLikeReference) {
  testing::ForEachKernelPath(CheckShortStreamsFailLikeReference);
}

TEST(LorenzoDifferentialTest, SzBlobsDecodeLikeReference) {
  testing::ForEachKernelPath(CheckSzBlobsDecodeLikeReference);
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
