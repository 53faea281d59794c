#include "net/net_client.h"

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/string_util.h"

namespace errorflow {
namespace net {

namespace {

using SteadyClock = std::chrono::steady_clock;

int RemainingMs(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SteadyClock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 60'000) return 60'000;
  return static_cast<int>(left.count());
}

}  // namespace

Result<NetClient> NetClient::Connect(const std::string& host, uint16_t port,
                                     std::chrono::milliseconds timeout,
                                     util::DecodeLimits limits) {
  NetClient client;
  EF_ASSIGN_OR_RETURN(OwnedFd fd, ConnectTcp(host, port, timeout));
  EF_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  client.conn_ = FramedConn(std::move(fd));
  client.limits_ = limits;
  return client;
}

Result<uint64_t> NetClient::Submit(const SubmitFrame& submit) {
  EF_RETURN_IF_ERROR(conn_error_);
  if (!conn_.valid()) return Status::FailedPrecondition("net: not connected");
  const uint64_t id = next_id_++;
  EF_RETURN_IF_ERROR(SendAll(EncodeSubmit(id, submit)));
  return id;
}

Result<ResponseFrame> NetClient::Await(uint64_t request_id,
                                       std::chrono::milliseconds timeout) {
  const SteadyClock::time_point deadline = SteadyClock::now() + timeout;
  while (true) {
    auto found = responses_.find(request_id);
    if (found != responses_.end()) {
      ResponseFrame out = std::move(found->second);
      responses_.erase(found);
      return out;
    }
    auto err = errors_.find(request_id);
    if (err != errors_.end()) {
      Status status = err->second;
      errors_.erase(err);
      return status;
    }
    EF_RETURN_IF_ERROR(conn_error_);
    if (!conn_.valid()) {
      return Status::FailedPrecondition("net: not connected");
    }
    EF_RETURN_IF_ERROR(PumpOnce(deadline));
  }
}

Result<ResponseFrame> NetClient::Roundtrip(
    const SubmitFrame& submit, std::chrono::milliseconds timeout) {
  EF_ASSIGN_OR_RETURN(uint64_t id, Submit(submit));
  return Await(id, timeout);
}

Status NetClient::Ping(std::chrono::milliseconds timeout) {
  EF_RETURN_IF_ERROR(conn_error_);
  if (!conn_.valid()) return Status::FailedPrecondition("net: not connected");
  const uint64_t id = next_id_++;
  EF_RETURN_IF_ERROR(SendAll(EncodePing(id)));
  const SteadyClock::time_point deadline = SteadyClock::now() + timeout;
  while (pongs_.find(id) == pongs_.end()) {
    EF_RETURN_IF_ERROR(conn_error_);
    EF_RETURN_IF_ERROR(PumpOnce(deadline));
  }
  pongs_.erase(id);
  return Status::OK();
}

Status NetClient::SendAll(const std::string& bytes) {
  conn_.Queue(bytes);
  while (conn_.pending()) {
    if (conn_.Flush().closed) {
      conn_error_ = Status::IOError(util::StrFormat(
          "net: send failed: %s", std::strerror(errno)));
      return conn_error_;
    }
    if (conn_.pending()) {
      // Send buffer full, or an injected fault capped the transfer at
      // zero bytes: wait for writability.
      pollfd pfd{conn_.fd(), POLLOUT, 0};
      (void)::poll(&pfd, 1, 50);
    }
  }
  return Status::OK();
}

Status NetClient::PumpOnce(SteadyClock::time_point deadline) {
  const int wait_ms = RemainingMs(deadline);
  if (wait_ms <= 0) {
    return Status::DeadlineExceeded("net: await timed out");
  }
  pollfd pfd{conn_.fd(), POLLIN, 0};
  const int polled = ::poll(&pfd, 1, wait_ms);
  if (polled < 0) {
    if (errno == EINTR) return Status::OK();
    conn_error_ = Status::IOError(util::StrFormat("net: poll failed: %s",
                                                  std::strerror(errno)));
    return conn_error_;
  }
  if (polled == 0) {
    return Status::DeadlineExceeded("net: await timed out");
  }

  const FramedConn::Transfer in = conn_.ReadFrames(
      limits_,
      [this](const FrameHeader& header, const char* payload) -> Status {
        switch (header.type) {
          case FrameType::kResponse: {
            EF_ASSIGN_OR_RETURN(
                ResponseFrame resp,
                DecodeResponse(payload, header.payload_len, limits_));
            responses_.emplace(header.request_id, std::move(resp));
            return Status::OK();
          }
          case FrameType::kError: {
            EF_ASSIGN_OR_RETURN(
                ErrorFrame err,
                DecodeError(payload, header.payload_len, limits_));
            // Request id 0 is a connection-scoped refusal (framing
            // violation, connection cap): no request will ever complete.
            if (header.request_id == 0) return WireErrorToStatus(err);
            errors_.emplace(header.request_id, WireErrorToStatus(err));
            return Status::OK();
          }
          case FrameType::kPong:
            pongs_.insert(header.request_id);
            return Status::OK();
          case FrameType::kPing:
            // Be a good liveness peer even as a client.
            return SendAll(EncodePong(header.request_id));
          case FrameType::kSubmit:
            break;
        }
        return Status::InvalidArgument("net: client received a Submit frame");
      });
  if (!in.framing.ok()) {
    conn_error_ = in.framing;
  } else if (in.closed) {
    conn_error_ = Status::IOError("net: connection closed by server");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace errorflow
