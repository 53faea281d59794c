// Whole-blob pins: FNV-1a digests of the complete blobs every backend
// writes (header, escape data and entropy stream together) and of the
// floats each blob decodes to. The codec-level pins in codec_test.cc see
// only synthetic symbol vectors, so a change to a predictor or
// reconstruction loop that altered a stream would pass them; it fails
// here. Inputs are the pipeline's own batch shapes from the data
// generators, normalized as the tasks normalize them, at the absolute
// L-inf tolerances the pipeline plans for the perfbench QoI tolerances
// (h2 at 1e-3 plans eb ~ 4e-5, where the SZ alphabet runs to thousands of
// symbols). The lz77 blobs of the same fields are stored
// (tests/compress/testdata) and only decoded: no encoder writes lz77.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "compress/parallel.h"
#include "data/combustion.h"
#include "data/dataset.h"
#include "data/eurosat.h"
#include "gtest/gtest.h"
#include "testing/stored_payloads.h"
#include "util/thread_pool.h"

namespace errorflow {
namespace compress {
namespace {

using tensor::Tensor;

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

uint64_t MixBytes(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct Field {
  Tensor data;
  std::vector<double> tolerances;
};

Tensor Normalized(const Tensor& raw) {
  return data::Normalizer::Fit(raw).Apply(raw);
}

std::vector<Field> Fields() {
  std::vector<Field> fields;
  fields.push_back(
      {Normalized(data::MakeH2CombustionDataset(32, 32, 5001).inputs),
       {4.0392278850704099e-05, 3.6951376845430709e-03,
        2.9506734205681954e-02}});
  data::EuroSatConfig config;
  config.n_images = 4;
  config.seed = 5001;
  fields.push_back({Normalized(data::GenerateEuroSat(config).inputs),
                    {3.0079717754737134e-04, 2.4183126045483451e-03,
                     1.7279411228117523e-02}});
  return fields;
}

struct Case {
  const char* name;
  Backend backend;
  bool parallel;
  uint64_t blob_digest;
  uint64_t decoded_digest;
};

TEST(BlobGoldenTest, BlobsAndDecodedFloatsArePinned) {
  // Pinned from the codec as it was before the word-at-a-time bit writer,
  // the dense Huffman ranking, the windowed Huffman decode and the
  // row-indexed Lorenzo loops.
  const Case kCases[] = {
      {"sz/huffman", Backend::kSz, false, 0x01fe15b7c1276cf4ull,
       0xd049abd91eb484afull},
      {"mgard/huffman", Backend::kMgard, false, 0xc87a60fc630e904eull,
       0x496d9323acc641a3ull},
      {"zfp", Backend::kZfp, false, 0x86f0cfb1669561ceull,
       0xd9ad0a1461dc2181ull},
      {"epar-sz/huffman", Backend::kSz, true, 0x9be340a123ec484eull,
       0x205bdd4ce62b7085ull},
      {"epar-mgard/huffman", Backend::kMgard, true, 0x5278a7f67f258259ull,
       0x66bb9a2634cd2111ull},
      {"epar-zfp", Backend::kZfp, true, 0x8c2cce1bb2ea1649ull,
       0xd9ad0a1461dc2181ull},
  };
  const std::vector<Field> fields = Fields();
  util::ThreadPool pool(2);
  for (const Case& c : kCases) {
    std::unique_ptr<Compressor> compressor =
        c.parallel ? std::make_unique<ParallelCompressor>(c.backend, &pool,
                                                          /*min_chunk_rows=*/16)
                   : MakeCompressor(c.backend);
    uint64_t blob_digest = kFnvBasis, decoded_digest = kFnvBasis;
    for (const Field& field : fields) {
      for (const double eb : field.tolerances) {
        auto comp = compressor->Compress(field.data, ErrorBound::AbsLinf(eb));
        ASSERT_TRUE(comp.ok()) << c.name << ": " << comp.status().ToString();
        auto dec = compressor->Decompress(comp->blob);
        ASSERT_TRUE(dec.ok()) << c.name << ": " << dec.status().ToString();
        ASSERT_EQ(dec->data.size(), field.data.size()) << c.name;
        blob_digest =
            MixBytes(blob_digest, comp->blob.data(), comp->blob.size());
        decoded_digest =
            MixBytes(decoded_digest, dec->data.data(),
                     static_cast<size_t>(dec->data.size()) * sizeof(float));
      }
    }
    EXPECT_EQ(blob_digest, c.blob_digest)
        << c.name << " blob 0x" << std::hex << blob_digest;
    EXPECT_EQ(decoded_digest, c.decoded_digest)
        << c.name << " decoded 0x" << std::hex << decoded_digest;
  }
}

// The lz77 blobs the encoder wrote for the fields above, one per field and
// tolerance in the order of the test above: their bytes digest to the
// blob digests the encoder's output was pinned to, and they decode to the
// same floats as the Huffman blobs of the same backend.
TEST(BlobGoldenTest, StoredLz77BlobsDecodeToPinnedFloats) {
  struct StoredCase {
    const char* file;
    Backend backend;
    bool parallel;
    uint64_t blob_digest;
    uint64_t decoded_digest;
  };
  const StoredCase kCases[] = {
      {"sz_lz77.blobs", Backend::kSz, false, 0x8b37b303ea4877d8ull,
       0xd049abd91eb484afull},
      {"mgard_lz77.blobs", Backend::kMgard, false, 0x7fa1a1723e7fe1cfull,
       0x496d9323acc641a3ull},
      {"epar_sz_lz77.blobs", Backend::kSz, true, 0xcce8d21629011ee1ull,
       0x205bdd4ce62b7085ull},
  };
  util::ThreadPool pool(2);
  for (const StoredCase& c : kCases) {
    const std::vector<testing::StoredPayload> blobs =
        testing::ReadStoredPayloads(c.file);
    ASSERT_EQ(blobs.size(), 6u) << c.file;
    std::unique_ptr<Compressor> compressor =
        c.parallel ? std::make_unique<ParallelCompressor>(c.backend, &pool,
                                                          /*min_chunk_rows=*/16)
                   : MakeCompressor(c.backend);
    uint64_t blob_digest = kFnvBasis, decoded_digest = kFnvBasis;
    for (const testing::StoredPayload& blob : blobs) {
      auto dec = compressor->Decompress(blob.bytes);
      ASSERT_TRUE(dec.ok()) << c.file << ": " << dec.status().ToString();
      ASSERT_EQ(static_cast<uint64_t>(dec->data.size()), blob.count) << c.file;
      blob_digest = MixBytes(blob_digest, blob.bytes.data(), blob.bytes.size());
      decoded_digest =
          MixBytes(decoded_digest, dec->data.data(),
                   static_cast<size_t>(dec->data.size()) * sizeof(float));
    }
    EXPECT_EQ(blob_digest, c.blob_digest)
        << c.file << " blob 0x" << std::hex << blob_digest;
    EXPECT_EQ(decoded_digest, c.decoded_digest)
        << c.file << " decoded 0x" << std::hex << decoded_digest;
  }
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
