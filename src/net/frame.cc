#include "net/frame.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/macros.h"

namespace errorflow {
namespace net {

namespace {

using util::ByteReader;
using util::ByteWriter;
using util::CheckedMul;
using util::DecodeLimits;

void PutHeader(ByteWriter* w, FrameType type, uint64_t request_id,
               uint32_t payload_len) {
  w->PutU32(kFrameMagic);
  w->PutU8(kProtocolVersion);
  w->PutU8(static_cast<uint8_t>(type));
  w->PutU64(request_id);
  w->PutU32(payload_len);
}

std::string Finish(FrameType type, uint64_t request_id,
                   const std::string& payload) {
  EF_CHECK(payload.size() <= kMaxFramePayloadBytes);
  ByteWriter w;
  PutHeader(&w, type, request_id, static_cast<uint32_t>(payload.size()));
  w.Raw(payload.data(), payload.size());
  return std::move(w).Finish();
}

void PutTensor(ByteWriter* w, const tensor::Tensor& t) {
  w->PutShape(t.shape());
  w->Raw(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
}

/// Shape, then exactly NumElements(shape) raw floats. Every count is
/// justified against the bytes actually remaining in the payload before
/// any allocation.
Result<tensor::Tensor> GetTensor(ByteReader* r, const DecodeLimits& limits) {
  EF_ASSIGN_OR_RETURN(tensor::Shape shape, r->GetShape());
  uint64_t elements = 1;
  for (int64_t d : shape) {
    if (!CheckedMul(elements, static_cast<uint64_t>(d), &elements)) {
      return Status::Corruption("net: tensor shape element-count overflow");
    }
  }
  EF_RETURN_IF_ERROR(limits.CheckElements(elements, "net: tensor"));
  uint64_t bytes = 0;
  if (!CheckedMul(elements, sizeof(float), &bytes)) {
    return Status::Corruption("net: tensor byte-size overflow");
  }
  EF_RETURN_IF_ERROR(limits.CheckAlloc(bytes, "net: tensor"));
  if (bytes > r->remaining()) {
    return Status::Corruption("net: tensor data truncated");
  }
  EF_ASSIGN_OR_RETURN(auto rest, r->Rest());
  tensor::Tensor t(std::move(shape));
  // A zero-element tensor (any dim == 0) has no bytes to copy, and both
  // pointers may legitimately be null then — memcpy forbids that even
  // with size 0.
  if (bytes != 0) {
    std::memcpy(t.data(), rest.first, static_cast<size_t>(bytes));
  }
  // Rest() consumed everything; push back the unread tail.
  const size_t extra = rest.second - static_cast<size_t>(bytes);
  if (extra != 0) {
    return Status::Corruption("net: trailing bytes after tensor data");
  }
  return t;
}

Status RequireDrained(const ByteReader& r, const char* what) {
  if (r.remaining() != 0) {
    return Status::Corruption(std::string("net: trailing bytes after ") +
                              what + " payload");
  }
  return Status::OK();
}

}  // namespace

serve::InferenceRequest ToInferenceRequest(SubmitFrame submit) {
  serve::InferenceRequest req;
  req.model = std::move(submit.model);
  req.input = std::move(submit.input);
  req.qoi_tolerance = submit.qoi_tolerance;
  if (submit.deadline_ms > 0) {
    req.deadline = serve::Clock::now() +
                   std::chrono::milliseconds(submit.deadline_ms);
  }
  return req;
}

Status WireErrorToStatus(const ErrorFrame& error) {
  const auto code = static_cast<StatusCode>(error.code);
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kIoError:
    case StatusCode::kCorruption:
    case StatusCode::kNotImplemented:
    case StatusCode::kInternal:
    case StatusCode::kResourceExhausted:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kDeadlineExceeded:
      return Status(code, error.message);
    case StatusCode::kOk:
      break;
  }
  return Status::Internal("net: error frame with invalid status code: " +
                          error.message);
}

bool IsValidFrameType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(FrameType::kSubmit) &&
         raw <= static_cast<uint8_t>(FrameType::kPong);
}

std::string EncodeSubmit(uint64_t request_id, const SubmitFrame& submit) {
  ByteWriter p;
  p.PutBytes(submit.model);
  p.PutF64(submit.qoi_tolerance);
  p.PutU32(submit.deadline_ms);
  PutTensor(&p, submit.input);
  return Finish(FrameType::kSubmit, request_id, p.buffer());
}

std::string EncodeResponse(uint64_t request_id, const ResponseFrame& resp) {
  ByteWriter p;
  p.PutU8(resp.format);
  p.PutF64(resp.predicted_qoi_bound);
  p.PutU32(resp.batch_requests);
  p.PutU32(resp.batch_rows);
  p.PutF64(resp.queue_seconds);
  p.PutF64(resp.total_seconds);
  PutTensor(&p, resp.output);
  return Finish(FrameType::kResponse, request_id, p.buffer());
}

std::string EncodeError(uint64_t request_id, const ErrorFrame& error) {
  ByteWriter p;
  p.PutU8(error.code);
  std::string message = error.message;
  if (message.size() > kMaxErrorMessageBytes) {
    message.resize(kMaxErrorMessageBytes);
  }
  p.PutBytes(message);
  return Finish(FrameType::kError, request_id, p.buffer());
}

std::string EncodePing(uint64_t request_id) {
  return Finish(FrameType::kPing, request_id, std::string());
}

std::string EncodePong(uint64_t request_id) {
  return Finish(FrameType::kPong, request_id, std::string());
}

std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload) {
  return Finish(type, request_id, payload);
}

Result<ExtractResult> TryExtractFrame(const char* data, size_t size,
                                      const DecodeLimits& limits,
                                      FrameHeader* header,
                                      size_t* frame_size) {
  if (size < kFrameHeaderBytes) return ExtractResult::kNeedMore;
  ByteReader r(data, size);
  EF_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kFrameMagic) {
    return Status::Corruption("net: bad frame magic");
  }
  EF_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kProtocolVersion) {
    return Status::Corruption("net: unsupported protocol version");
  }
  EF_ASSIGN_OR_RETURN(uint8_t raw_type, r.GetU8());
  if (!IsValidFrameType(raw_type)) {
    return Status::Corruption("net: unknown frame type");
  }
  EF_ASSIGN_OR_RETURN(uint64_t request_id, r.GetU64());
  EF_ASSIGN_OR_RETURN(uint32_t payload_len, r.GetU32());
  const uint64_t cap =
      std::min<uint64_t>(kMaxFramePayloadBytes, limits.max_alloc_bytes);
  if (payload_len > cap) {
    return Status::Corruption("net: frame payload exceeds limit");
  }
  header->version = version;
  header->type = static_cast<FrameType>(raw_type);
  header->request_id = request_id;
  header->payload_len = payload_len;
  const size_t total = kFrameHeaderBytes + static_cast<size_t>(payload_len);
  if (size < total) return ExtractResult::kNeedMore;
  *frame_size = total;
  return ExtractResult::kFrame;
}

Result<SubmitFrame> DecodeSubmit(const char* payload, size_t len,
                                 const DecodeLimits& limits) {
  ByteReader r(payload, len);
  SubmitFrame out;
  EF_ASSIGN_OR_RETURN(out.model, r.GetBytesBounded(kMaxModelNameBytes));
  if (out.model.empty()) {
    return Status::Corruption("net: empty model name");
  }
  EF_ASSIGN_OR_RETURN(out.qoi_tolerance, r.GetF64());
  EF_ASSIGN_OR_RETURN(out.deadline_ms, r.GetU32());
  EF_ASSIGN_OR_RETURN(out.input, GetTensor(&r, limits));
  EF_RETURN_IF_ERROR(RequireDrained(r, "submit"));
  return out;
}

Result<ResponseFrame> DecodeResponse(const char* payload, size_t len,
                                     const DecodeLimits& limits) {
  ByteReader r(payload, len);
  ResponseFrame out;
  EF_ASSIGN_OR_RETURN(out.format, r.GetU8());
  if (out.format > 4) {
    return Status::Corruption("net: unknown numeric format ordinal");
  }
  EF_ASSIGN_OR_RETURN(out.predicted_qoi_bound, r.GetF64());
  EF_ASSIGN_OR_RETURN(out.batch_requests, r.GetU32());
  EF_ASSIGN_OR_RETURN(out.batch_rows, r.GetU32());
  EF_ASSIGN_OR_RETURN(out.queue_seconds, r.GetF64());
  EF_ASSIGN_OR_RETURN(out.total_seconds, r.GetF64());
  EF_ASSIGN_OR_RETURN(out.output, GetTensor(&r, limits));
  EF_RETURN_IF_ERROR(RequireDrained(r, "response"));
  return out;
}

Result<ErrorFrame> DecodeError(const char* payload, size_t len,
                               const DecodeLimits& limits) {
  (void)limits;  // Message cap is a protocol constant.
  ByteReader r(payload, len);
  ErrorFrame out;
  EF_ASSIGN_OR_RETURN(out.code, r.GetU8());
  EF_ASSIGN_OR_RETURN(out.message, r.GetBytesBounded(kMaxErrorMessageBytes));
  EF_RETURN_IF_ERROR(RequireDrained(r, "error"));
  return out;
}

}  // namespace net
}  // namespace errorflow
