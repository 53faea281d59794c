#ifndef ERRORFLOW_NET_FRAME_H_
#define ERRORFLOW_NET_FRAME_H_

#include <cstdint>
#include <string>

#include "serve/request.h"
#include "tensor/tensor.h"
#include "util/bytes.h"
#include "util/result.h"

namespace errorflow {
namespace net {

/// \name Wire protocol constants (docs/NETWORKING.md has the frame table).
///
/// Every frame is `[header][payload]` with a fixed 18-byte little-endian
/// header: magic (u32), version (u8), frame type (u8), request id (u64),
/// payload length (u32). The magic reads "EFN1" on the wire, so a stray
/// HTTP request or a desynchronized stream fails on the first four bytes
/// instead of being interpreted as a length field.
/// @{
inline constexpr uint32_t kFrameMagic = 0x314E4645u;  // "EFN1" bytes.
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 1 + 8 + 4;
/// Protocol-level payload cap, independent of (and additionally bounded
/// by) the decoder's `DecodeLimits::max_alloc_bytes`. 64 MiB comfortably
/// holds the largest registered input batch while keeping a hostile
/// length field from reserving gigabytes.
inline constexpr uint64_t kMaxFramePayloadBytes = 64ull << 20;
/// Field caps inside payloads; both are also bounded by the bytes
/// actually remaining in the frame.
inline constexpr uint64_t kMaxModelNameBytes = 256;
inline constexpr uint64_t kMaxErrorMessageBytes = 4096;
/// @}

/// \brief Frame kinds. Submit flows client -> server; Response/Error flow
/// server -> client; Ping/Pong is a liveness echo (either direction).
enum class FrameType : uint8_t {
  kSubmit = 1,
  kResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
};

/// True for the enumerators above; anything else on the wire is Corruption.
bool IsValidFrameType(uint8_t raw);

/// \brief Decoded fixed header of one frame.
struct FrameHeader {
  uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

/// \brief Submit payload: one tolerance-tagged inference request.
struct SubmitFrame {
  std::string model;
  /// Absolute QoI tolerance in the server's configured norm.
  double qoi_tolerance = 0.0;
  /// Client time budget in milliseconds; 0 defers to the server's
  /// `ServerConfig::default_timeout` (the shared wire/in-process knob).
  uint32_t deadline_ms = 0;
  tensor::Tensor input;
};

/// The in-process request a Submit frame stands for; the wire server and
/// the load rig's in-process transport both convert through this. A
/// nonzero `deadline_ms` becomes an absolute deadline from now; 0 leaves
/// it unset, so the InferenceServer stamps its default timeout.
serve::InferenceRequest ToInferenceRequest(SubmitFrame submit);

/// \brief Response payload: the admitted request's outcome.
struct ResponseFrame {
  /// Numeric format ordinal the request executed on (quant::NumericFormat).
  uint8_t format = 0;
  double predicted_qoi_bound = 0.0;
  uint32_t batch_requests = 0;
  uint32_t batch_rows = 0;
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  tensor::Tensor output;
};

/// \brief Error payload: a typed rejection or failure. `code` carries the
/// StatusCode ordinal so clients can branch on it — queue-full
/// backpressure (kResourceExhausted) is distinguishable from a queue-shed
/// deadline (kDeadlineExceeded) or a malformed request (kInvalidArgument).
struct ErrorFrame {
  uint8_t code = 0;
  std::string message;
};

/// Reconstructs the typed Status an Error frame carried; an out-of-range
/// or kOk ordinal maps to kInternal (an error frame is never OK).
Status WireErrorToStatus(const ErrorFrame& error);

/// \name Encoders. Each returns a complete wire frame (header + payload).
/// @{
std::string EncodeSubmit(uint64_t request_id, const SubmitFrame& submit);
std::string EncodeResponse(uint64_t request_id, const ResponseFrame& resp);
std::string EncodeError(uint64_t request_id, const ErrorFrame& error);
std::string EncodePing(uint64_t request_id);
std::string EncodePong(uint64_t request_id);
/// Frames a pre-encoded payload (used by the load rig to reuse one encoded
/// Submit payload across request ids without re-serializing the tensor).
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload);
/// @}

/// \brief Outcome of scanning a receive buffer for one complete frame.
enum class ExtractResult {
  /// The buffer holds a valid prefix of a frame; read more bytes.
  kNeedMore,
  /// A complete frame starts at offset 0; `*frame_size` bytes long.
  kFrame,
};

/// Scans `data[0, size)` for one complete frame. The header is consumed
/// through a `ByteReader` and validated eagerly — bad magic, unsupported
/// version, unknown type, or a payload length exceeding
/// min(kMaxFramePayloadBytes, limits.max_alloc_bytes) returns Corruption
/// immediately, *before* waiting for the claimed payload, so a hostile
/// length field cannot hold a connection's buffer hostage.
Result<ExtractResult> TryExtractFrame(const char* data, size_t size,
                                      const util::DecodeLimits& limits,
                                      FrameHeader* header,
                                      size_t* frame_size);

/// \name Payload decoders. Each consumes `payload[0, len)` through a
/// `ByteReader`, enforces `DecodeLimits` on every untrusted count, and
/// rejects trailing bytes (a length-consistent frame has none).
/// @{
Result<SubmitFrame> DecodeSubmit(const char* payload, size_t len,
                                 const util::DecodeLimits& limits);
Result<ResponseFrame> DecodeResponse(const char* payload, size_t len,
                                     const util::DecodeLimits& limits);
Result<ErrorFrame> DecodeError(const char* payload, size_t len,
                               const util::DecodeLimits& limits);
/// @}

}  // namespace net
}  // namespace errorflow

#endif  // ERRORFLOW_NET_FRAME_H_
