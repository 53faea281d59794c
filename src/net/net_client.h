#ifndef ERRORFLOW_NET_NET_CLIENT_H_
#define ERRORFLOW_NET_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "net/frame.h"
#include "net/framed_conn.h"
#include "util/bytes.h"
#include "util/result.h"

namespace errorflow {
namespace net {

/// \brief Blocking client for the EFN1 wire protocol: connect, submit one
/// or more requests, await responses by id. Handles partial writes, frame
/// reassembly across partial reads, and out-of-order responses (the batch
/// scheduler completes fused groups, not submission order). Not
/// thread-safe; use one NetClient per thread.
///
/// Error frames come back as the typed Status they carried on the wire, so
/// callers can branch on kResourceExhausted (queue backpressure) vs
/// kDeadlineExceeded (shed) vs kInvalidArgument (malformed request) exactly
/// as an in-process `InferenceServer::Submit` caller would. An error frame
/// with request id 0 is connection-fatal (framing violation, connection
/// cap): it fails every subsequent call.
class NetClient {
 public:
  NetClient() = default;
  NetClient(NetClient&&) = default;
  NetClient& operator=(NetClient&&) = default;

  /// Blocking connect with timeout.
  static Result<NetClient> Connect(
      const std::string& host, uint16_t port,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000),
      util::DecodeLimits limits = util::DecodeLimits::Default());

  /// Sends one Submit frame; returns the assigned request id immediately
  /// without waiting for the response.
  Result<uint64_t> Submit(const SubmitFrame& submit);

  /// Blocks until the response (or typed error) for `request_id` arrives,
  /// buffering any other requests' responses for their own Await calls.
  /// kDeadlineExceeded when `timeout` elapses first.
  Result<ResponseFrame> Await(uint64_t request_id,
                              std::chrono::milliseconds timeout);

  /// Submit + Await in one call.
  Result<ResponseFrame> Roundtrip(const SubmitFrame& submit,
                                  std::chrono::milliseconds timeout);

  /// Liveness echo: sends Ping, waits for the matching Pong.
  Status Ping(std::chrono::milliseconds timeout);

  void Close() { conn_.Close(); }
  bool connected() const { return conn_.valid(); }
  /// Raw socket fd — lets the fault-injection hook target one side of the
  /// wire in tests.
  int fd() const { return conn_.fd(); }

 private:
  /// Writes all of `bytes`, polling while the socket buffer is full.
  Status SendAll(const std::string& bytes);
  /// Waits (bounded by `deadline`) for readable bytes and parses every
  /// complete frame into responses_/errors_/pongs_.
  Status PumpOnce(std::chrono::steady_clock::time_point deadline);

  /// The nonblocking socket, its reassembly and its send buffer.
  FramedConn conn_;
  util::DecodeLimits limits_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, ResponseFrame> responses_;
  std::map<uint64_t, Status> errors_;
  std::set<uint64_t> pongs_;
  /// Set once the stream is unrecoverable (id-0 error frame, EOF, frame
  /// corruption); returned by every later call.
  Status conn_error_;
};

}  // namespace net
}  // namespace errorflow

#endif  // ERRORFLOW_NET_NET_CLIENT_H_
