#ifndef ERRORFLOW_TESTS_TESTING_DECODE_FRAME_H_
#define ERRORFLOW_TESTS_TESTING_DECODE_FRAME_H_

#include <string>

#include "net/frame.h"
#include "util/bytes.h"
#include "util/macros.h"
#include "util/result.h"

namespace errorflow {
namespace testing {

/// \brief A fully decoded EFN1 frame of any type.
struct DecodedFrame {
  net::FrameHeader header;
  net::SubmitFrame submit;      // When header.type == kSubmit.
  net::ResponseFrame response;  // When header.type == kResponse.
  net::ErrorFrame error;        // When header.type == kError.
};

/// Extracts and fully decodes the first frame in `wire` through the
/// server's decode path (net::TryExtractFrame, then the payload decoder of
/// the frame's type): the entry point of the frame tests and the
/// structure-aware fuzzer.
inline Result<DecodedFrame> DecodeFrame(
    const std::string& wire,
    const util::DecodeLimits& limits = util::DecodeLimits::Default()) {
  DecodedFrame out;
  size_t frame_size = 0;
  EF_ASSIGN_OR_RETURN(
      net::ExtractResult extract,
      net::TryExtractFrame(wire.data(), wire.size(), limits, &out.header,
                           &frame_size));
  if (extract == net::ExtractResult::kNeedMore) {
    return Status::Corruption("net: incomplete frame");
  }
  const char* payload = wire.data() + net::kFrameHeaderBytes;
  const size_t len = out.header.payload_len;
  switch (out.header.type) {
    case net::FrameType::kSubmit: {
      EF_ASSIGN_OR_RETURN(out.submit, net::DecodeSubmit(payload, len, limits));
      break;
    }
    case net::FrameType::kResponse: {
      EF_ASSIGN_OR_RETURN(out.response,
                          net::DecodeResponse(payload, len, limits));
      break;
    }
    case net::FrameType::kError: {
      EF_ASSIGN_OR_RETURN(out.error, net::DecodeError(payload, len, limits));
      break;
    }
    case net::FrameType::kPing:
    case net::FrameType::kPong: {
      if (len != 0) {
        return Status::Corruption("net: ping/pong frame carries payload");
      }
      break;
    }
  }
  return out;
}

}  // namespace testing
}  // namespace errorflow

#endif  // ERRORFLOW_TESTS_TESTING_DECODE_FRAME_H_
