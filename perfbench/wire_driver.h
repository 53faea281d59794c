// Open-loop EFN1 load driver owned by the benchmark. It deliberately does
// not reuse the program's own load generators, so changes to those cannot
// change the instrument that measures them.
#ifndef PERFBENCH_WIRE_DRIVER_H_
#define PERFBENCH_WIRE_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "util/result.h"

namespace perfbench {

using errorflow::Result;
using errorflow::Status;

/// What became of one scheduled request.
struct WireAnswer {
  enum class Kind : uint8_t { kUnanswered, kOk, kError };
  Kind kind = Kind::kUnanswered;
  /// Seconds from the phase start: when the frame was handed to the
  /// socket, and when its answer was read.
  double sent = 0.0;
  double done = 0.0;
  /// StatusCode ordinal of an Error frame.
  uint8_t error_code = 0;
  /// Decoded Response frame (kOk only).
  errorflow::net::ResponseFrame response;
};

struct WirePhase {
  /// One entry per scheduled request, in schedule order.
  std::vector<WireAnswer> answers;
  /// Send time minus scheduled time, per request, in milliseconds.
  std::vector<double> lateness_ms;
  /// Requests sent but unanswered when the last one was sent.
  int64_t outstanding_at_last_send = 0;
  /// Phase wall time (first due time to the end of the drain) and the
  /// part of it the driver thread spent outside epoll waits.
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;
  /// Bytes of Submit frames written.
  int64_t bytes_sent = 0;
};

/// Single-threaded epoll client over a fixed set of loopback connections.
/// Requests are spread round-robin over the connections; latency is
/// measured by the caller from each request's scheduled time.
class WireDriver {
 public:
  /// Opens `connections` connections to 127.0.0.1:`port`.
  static Result<WireDriver> Connect(uint16_t port, int connections);

  WireDriver(WireDriver&&) = default;
  WireDriver& operator=(WireDriver&&) = default;

  /// Sends request i at `due[i]` seconds after the phase start, with the
  /// pre-encoded Submit payload `payloads[payload_of[i]]`, then reads
  /// answers until every request is answered or `drain_seconds` have
  /// passed since the last due time. Answers to requests of earlier
  /// phases are ignored.
  Result<WirePhase> Run(const std::vector<double>& due,
                        const std::vector<size_t>& payload_of,
                        const std::vector<std::string>& payloads,
                        double drain_seconds);

 private:
  struct Conn {
    errorflow::net::OwnedFd fd;
    std::string wbuf;
    size_t wpos = 0;
    std::string rbuf;
    bool want_write = false;
  };

  WireDriver() = default;

  Status Flush(size_t conn);
  Status ReadAvailable(size_t conn, uint64_t first_id, double phase_start,
                       WirePhase* phase, int64_t* answered);

  errorflow::net::OwnedFd epoll_;
  std::vector<Conn> conns_;
  /// Request ids keep increasing across phases, so a late answer from an
  /// earlier phase is recognised and dropped.
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_DRIVER_H_
