// Fuzz and regression coverage for the EFN1 frame decoder: structure-aware
// mutations of genuine wire frames never crash or over-allocate, and the
// hand-crafted hostile blobs below (allocation bombs, overflow-prone shape
// products, header/payload confusions) stay rejected. Runs inside
// ef_fuzz_tests (with the 256 MiB allocation guard).
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "testing/alloc_guard.h"
#include "testing/decode_frame.h"
#include "testing/fuzz_util.h"
#include "testing/test_util.h"

namespace errorflow {
namespace net {
namespace {

using testing::DecodeFrame;

std::vector<std::string> WireCorpus() {
  SubmitFrame submit;
  submit.model = "mlp";
  submit.qoi_tolerance = 1e-2;
  submit.deadline_ms = 500;
  submit.input = testing::RandomTensor({3, 6}, 21);

  ResponseFrame response;
  response.format = 3;
  response.predicted_qoi_bound = 2e-3;
  response.batch_requests = 2;
  response.batch_rows = 5;
  response.queue_seconds = 0.01;
  response.total_seconds = 0.02;
  response.output = testing::RandomTensor({3, 4}, 22);

  ErrorFrame error;
  error.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
  error.message = "serve: queue full";

  return {EncodeSubmit(1, submit), EncodeResponse(2, response),
          EncodeError(3, error), EncodePing(4), EncodePong(5)};
}

TEST(FrameFuzzTest, StructureAwareMutationsHandled) {
  testing::BlobMutator mutator(WireCorpus(), /*seed=*/0xEF17);
  testing::ResetMaxSingleAlloc();
  const auto stats = testing::RunFuzz(
      &mutator, testing::FuzzIterations(), [](const std::string& blob) {
        auto result = DecodeFrame(blob);
        (void)result;  // Typed error or a fully decoded frame; no crash.
      });
  EXPECT_EQ(stats.oversize_allocs, 0);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

// Mutations that keep the 18-byte header intact but scramble payloads hit
// the deep decoders (model name, tensor shape, float fields) every
// iteration instead of dying on the magic check.
TEST(FrameFuzzTest, PayloadOnlyMutationsHandled) {
  std::vector<std::string> corpus = WireCorpus();
  testing::BlobMutator mutator(corpus, /*seed=*/0xEF18);
  testing::ResetMaxSingleAlloc();
  const auto stats = testing::RunFuzz(
      &mutator, testing::FuzzIterations(), [&](const std::string& blob) {
        // Graft each mutated blob's tail onto a valid header, with the
        // length field rewritten to match, so TryExtractFrame admits it.
        if (blob.size() <= kFrameHeaderBytes) return;
        std::string reframed = corpus[blob.size() % corpus.size()];
        reframed.resize(kFrameHeaderBytes);
        reframed.append(blob, kFrameHeaderBytes,
                        blob.size() - kFrameHeaderBytes);
        const uint32_t len =
            static_cast<uint32_t>(reframed.size() - kFrameHeaderBytes);
        std::memcpy(reframed.data() + 14, &len, sizeof(len));
        auto result = DecodeFrame(reframed);
        (void)result;
      });
  EXPECT_EQ(stats.oversize_allocs, 0);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

std::string SubmitWithRawShape(const std::vector<int64_t>& dims,
                               size_t data_bytes) {
  util::ByteWriter payload;
  payload.PutBytes("mlp");
  payload.PutF64(1e-2);
  payload.PutU32(0);
  payload.PutU32(static_cast<uint32_t>(dims.size()));
  for (int64_t d : dims) payload.PutI64(d);
  payload.Raw(std::string(data_bytes, '\0').data(), data_bytes);
  return EncodeFrame(FrameType::kSubmit, 1, payload.buffer());
}

// A shape whose element product overflows uint64 must be rejected by the
// checked multiply, not allocated.
TEST(FrameFuzzTest, RegressionShapeProductOverflow) {
  testing::ResetMaxSingleAlloc();
  auto result =
      SubmitWithRawShape({1ll << 62, 1ll << 62, 16}, /*data_bytes=*/64);
  EXPECT_EQ(DecodeFrame(result).status().code(), StatusCode::kCorruption);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

// A plausible shape claiming far more data than the frame carries must be
// rejected by the payload-justification check before the tensor allocates.
TEST(FrameFuzzTest, RegressionAllocationBombShape) {
  testing::ResetMaxSingleAlloc();
  auto result = SubmitWithRawShape({1 << 20, 1 << 10}, /*data_bytes=*/16);
  EXPECT_EQ(DecodeFrame(result).status().code(), StatusCode::kCorruption);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

// A zero-element tensor ({0, 6}) carries no data bytes; the decoder must
// not hand memcpy a null source (found by the structure-aware fuzzer
// under UBSan).
TEST(FrameFuzzTest, RegressionZeroElementTensorDecodes) {
  auto result = DecodeFrame(SubmitWithRawShape({0, 6}, /*data_bytes=*/0));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->submit.input.size(), 0);
}

// Hostile rank (past the 8-dim cap) and a negative dimension must both
// die in the shape reader before any element math runs.
TEST(FrameFuzzTest, RegressionHostileShapeHeader) {
  EXPECT_EQ(DecodeFrame(SubmitWithRawShape(std::vector<int64_t>(9, 1), 4))
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeFrame(SubmitWithRawShape({2, -3}, 4)).status().code(),
            StatusCode::kCorruption);
}

// A model-name length field pointing past the end of the payload.
TEST(FrameFuzzTest, RegressionModelNameLengthInflation) {
  util::ByteWriter payload;
  payload.PutU64(0xFFFFFFFFFFFFull);  // Bogus string length prefix.
  payload.Raw("mlp", 3);
  const std::string wire =
      EncodeFrame(FrameType::kSubmit, 1, payload.buffer());
  testing::ResetMaxSingleAlloc();
  EXPECT_FALSE(DecodeFrame(wire).ok());
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

// An error frame whose message length claims more than the payload holds.
TEST(FrameFuzzTest, RegressionErrorMessageLengthInflation) {
  util::ByteWriter payload;
  payload.PutU8(static_cast<uint8_t>(StatusCode::kInternal));
  payload.PutU64(kMaxErrorMessageBytes);  // Claims 4 KiB, carries 2 bytes.
  payload.Raw("hi", 2);
  const std::string wire =
      EncodeFrame(FrameType::kError, 1, payload.buffer());
  EXPECT_FALSE(DecodeFrame(wire).ok());
}

// Header of one frame type over the payload of another (HeaderSwap's
// deterministic cousin): must decode as a typed error, never a crash.
TEST(FrameFuzzTest, RegressionHeaderPayloadTypeConfusion) {
  const std::vector<std::string> corpus = WireCorpus();
  for (const std::string& a : corpus) {
    for (const std::string& b : corpus) {
      std::string spliced = a.substr(0, kFrameHeaderBytes);
      spliced.append(b, kFrameHeaderBytes, b.size() - kFrameHeaderBytes);
      const uint32_t len =
          static_cast<uint32_t>(spliced.size() - kFrameHeaderBytes);
      std::memcpy(spliced.data() + 14, &len, sizeof(len));
      auto result = DecodeFrame(spliced);
      (void)result;
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace errorflow
