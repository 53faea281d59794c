#include "net/frame.h"

#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "testing/decode_frame.h"
#include "testing/test_util.h"

namespace errorflow {
namespace net {
namespace {

using testing::DecodeFrame;

SubmitFrame MakeSubmit() {
  SubmitFrame s;
  s.model = "mlp";
  s.qoi_tolerance = 1e-2;
  s.deadline_ms = 250;
  s.input = testing::RandomTensor({2, 6}, 11);
  return s;
}

TEST(FrameTest, SubmitRoundtrips) {
  const SubmitFrame in = MakeSubmit();
  const std::string wire = EncodeSubmit(42, in);
  auto decoded = DecodeFrame(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->header.type, FrameType::kSubmit);
  EXPECT_EQ(decoded->header.request_id, 42u);
  EXPECT_EQ(decoded->submit.model, "mlp");
  EXPECT_EQ(decoded->submit.qoi_tolerance, 1e-2);
  EXPECT_EQ(decoded->submit.deadline_ms, 250u);
  ASSERT_EQ(decoded->submit.input.shape(), in.input.shape());
  for (int64_t i = 0; i < in.input.size(); ++i) {
    EXPECT_EQ(decoded->submit.input[i], in.input[i]);
  }
}

TEST(FrameTest, ResponseRoundtrips) {
  ResponseFrame in;
  in.format = 2;
  in.predicted_qoi_bound = 3.5e-3;
  in.batch_requests = 4;
  in.batch_rows = 9;
  in.queue_seconds = 0.25;
  in.total_seconds = 0.5;
  in.output = testing::RandomTensor({2, 4}, 13);
  const std::string wire = EncodeResponse(7, in);
  auto decoded = DecodeFrame(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->header.type, FrameType::kResponse);
  EXPECT_EQ(decoded->header.request_id, 7u);
  EXPECT_EQ(decoded->response.format, 2);
  EXPECT_EQ(decoded->response.predicted_qoi_bound, 3.5e-3);
  EXPECT_EQ(decoded->response.batch_requests, 4u);
  EXPECT_EQ(decoded->response.batch_rows, 9u);
  ASSERT_EQ(decoded->response.output.shape(), in.output.shape());
}

TEST(FrameTest, ErrorRoundtripsAsTypedStatus) {
  ErrorFrame in;
  in.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
  in.message = "queue full";
  auto decoded = DecodeFrame(EncodeError(9, in));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->header.type, FrameType::kError);
  const Status typed = WireErrorToStatus(decoded->error);
  EXPECT_EQ(typed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(typed.message(), "queue full");
}

TEST(FrameTest, WireErrorWithBogusCodeIsInternal) {
  ErrorFrame err;
  err.code = 200;
  EXPECT_EQ(WireErrorToStatus(err).code(), StatusCode::kInternal);
  err.code = 0;  // kOk is not a valid error payload either.
  EXPECT_EQ(WireErrorToStatus(err).code(), StatusCode::kInternal);
}

TEST(FrameTest, PingPongRoundtrip) {
  auto ping = DecodeFrame(EncodePing(3));
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->header.type, FrameType::kPing);
  auto pong = DecodeFrame(EncodePong(3));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->header.type, FrameType::kPong);
}

TEST(FrameTest, TruncatedPrefixesNeverCrashAndNeedMore) {
  const std::string wire = EncodeSubmit(1, MakeSubmit());
  for (size_t len = 0; len < wire.size(); ++len) {
    FrameHeader header;
    size_t frame_size = 0;
    auto extracted =
        TryExtractFrame(wire.data(), len, util::DecodeLimits::Default(),
                        &header, &frame_size);
    ASSERT_TRUE(extracted.ok()) << "prefix " << len;
    EXPECT_EQ(*extracted, ExtractResult::kNeedMore) << "prefix " << len;
  }
}

TEST(FrameTest, BadMagicIsCorruptionNotNeedMore) {
  std::string wire = EncodePing(1);
  wire[0] ^= 0x01;
  FrameHeader header;
  size_t frame_size = 0;
  auto extracted =
      TryExtractFrame(wire.data(), wire.size(),
                      util::DecodeLimits::Default(), &header, &frame_size);
  EXPECT_EQ(extracted.status().code(), StatusCode::kCorruption);
}

TEST(FrameTest, UnsupportedVersionRejected) {
  std::string wire = EncodePing(1);
  wire[4] = 99;
  EXPECT_EQ(DecodeFrame(wire).status().code(), StatusCode::kCorruption);
}

TEST(FrameTest, UnknownFrameTypeRejected) {
  std::string wire = EncodePing(1);
  wire[5] = 77;
  EXPECT_EQ(DecodeFrame(wire).status().code(), StatusCode::kCorruption);
}

// The header is validated before the payload arrives: a hostile length
// field is rejected from the 18-byte prefix alone instead of making the
// server buffer toward the claimed size.
TEST(FrameTest, HostilePayloadLengthRejectedFromHeaderAlone) {
  std::string wire = EncodePing(1);
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(wire.data() + 14, &huge, sizeof(huge));
  FrameHeader header;
  size_t frame_size = 0;
  auto extracted = TryExtractFrame(wire.data(), kFrameHeaderBytes,
                                   util::DecodeLimits::Default(), &header,
                                   &frame_size);
  EXPECT_EQ(extracted.status().code(), StatusCode::kCorruption);
}

TEST(FrameTest, PayloadCapHonorsDecodeLimits) {
  util::DecodeLimits tight;
  tight.max_alloc_bytes = 64;
  const std::string wire = EncodeSubmit(1, MakeSubmit());
  EXPECT_EQ(DecodeFrame(wire, tight).status().code(),
            StatusCode::kCorruption);
}

TEST(FrameTest, PingWithPayloadRejected) {
  const std::string wire = EncodeFrame(FrameType::kPing, 1, "x");
  EXPECT_EQ(DecodeFrame(wire).status().code(), StatusCode::kCorruption);
}

TEST(FrameTest, TrailingBytesInsidePayloadRejected) {
  // Re-frame a valid submit payload with one extra byte appended.
  std::string payload =
      EncodeSubmit(1, MakeSubmit()).substr(kFrameHeaderBytes);
  payload.push_back('\0');
  const std::string wire = EncodeFrame(FrameType::kSubmit, 1, payload);
  EXPECT_EQ(DecodeFrame(wire).status().code(), StatusCode::kCorruption);
}

TEST(FrameTest, EmptyModelNameRejected) {
  SubmitFrame s = MakeSubmit();
  s.model.clear();
  EXPECT_EQ(DecodeFrame(EncodeSubmit(1, s)).status().code(),
            StatusCode::kCorruption);
}

TEST(FrameTest, OversizedModelNameRejected) {
  SubmitFrame s = MakeSubmit();
  s.model.assign(kMaxModelNameBytes + 1, 'm');
  EXPECT_FALSE(DecodeFrame(EncodeSubmit(1, s)).ok());
}

TEST(FrameTest, TensorDataTruncationRejected) {
  // Drop the final float of the tensor payload and fix up the length.
  std::string wire = EncodeSubmit(1, MakeSubmit());
  wire.resize(wire.size() - sizeof(float));
  const uint32_t new_len =
      static_cast<uint32_t>(wire.size() - kFrameHeaderBytes);
  std::memcpy(wire.data() + 14, &new_len, sizeof(new_len));
  EXPECT_EQ(DecodeFrame(wire).status().code(), StatusCode::kCorruption);
}

TEST(FrameTest, BadFormatOrdinalInResponseRejected) {
  ResponseFrame r;
  r.format = 5;  // One past kINT8.
  r.output = testing::RandomTensor({1, 2}, 3);
  EXPECT_EQ(DecodeFrame(EncodeResponse(1, r)).status().code(),
            StatusCode::kCorruption);
}

TEST(FrameTest, BackToBackFramesExtractOneAtATime) {
  const std::string first = EncodePing(1);
  const std::string second = EncodeSubmit(2, MakeSubmit());
  const std::string wire = first + second;
  FrameHeader header;
  size_t frame_size = 0;
  auto extracted =
      TryExtractFrame(wire.data(), wire.size(),
                      util::DecodeLimits::Default(), &header, &frame_size);
  ASSERT_TRUE(extracted.ok());
  ASSERT_EQ(*extracted, ExtractResult::kFrame);
  EXPECT_EQ(frame_size, first.size());
  EXPECT_EQ(header.type, FrameType::kPing);
  auto next = TryExtractFrame(wire.data() + frame_size,
                              wire.size() - frame_size,
                              util::DecodeLimits::Default(), &header,
                              &frame_size);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, ExtractResult::kFrame);
  EXPECT_EQ(header.type, FrameType::kSubmit);
  EXPECT_EQ(header.request_id, 2u);
}

}  // namespace
}  // namespace net
}  // namespace errorflow
