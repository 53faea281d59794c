#ifndef ERRORFLOW_NET_SOCKET_H_
#define ERRORFLOW_NET_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "util/result.h"

namespace errorflow {
namespace net {

/// \brief Owning file-descriptor handle; closes on destruction. Movable,
/// not copyable — the usual RAII guard so no error path leaks a socket.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Close(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Close();

 private:
  int fd_ = -1;
};

/// Marks `fd` O_NONBLOCK.
Status SetNonBlocking(int fd);

/// Disables Nagle batching; request/response latency over loopback drops
/// from ~40 ms (delayed-ACK interaction) to microseconds.
Status SetNoDelay(int fd);

/// Creates a listening TCP socket bound to `address:port` (port 0 picks an
/// ephemeral port) with SO_REUSEADDR, nonblocking, `backlog` pending
/// connections. `*bound_port` receives the actual port.
Result<OwnedFd> ListenTcp(const std::string& address, uint16_t port,
                          int backlog, uint16_t* bound_port);

/// Blocking TCP connect to `host:port` (numeric or resolvable name) with a
/// connect timeout. The returned socket is blocking with TCP_NODELAY set.
Result<OwnedFd> ConnectTcp(const std::string& host, uint16_t port,
                           std::chrono::milliseconds timeout);

/// \brief One read/write attempt's outcome. `n > 0`: bytes moved;
/// `n == 0`: orderly EOF (reads only); `n < 0`: error, with `would_block`
/// distinguishing EAGAIN/EWOULDBLOCK from a real failure.
struct IoOutcome {
  long n = 0;
  bool would_block = false;
};

/// \name Fault-injectable socket I/O.
///
/// The server loop, the load rig and the client library move bytes
/// exclusively through these wrappers (by way of net::FramedConn), so the
/// test hook below can truncate a transfer at an arbitrary byte offset,
/// delay it, or fail it outright on either side of the wire.
/// @{
IoOutcome ReadSome(int fd, char* buf, size_t len);
IoOutcome WriteSome(int fd, const char* buf, size_t len);

/// Verdict the hook returns for one I/O attempt.
struct SocketFault {
  /// Cap on bytes moved by this call (short read/write); SIZE_MAX = no cap.
  size_t max_bytes = static_cast<size_t>(-1);
  /// Sleep before the transfer (slow-client simulation).
  int delay_us = 0;
  /// Fail the call as if the peer reset the connection.
  bool fail = false;
};

/// `hook(fd, is_write, len)` runs before every ReadSome/WriteSome transfer.
/// Passing nullptr uninstalls. Test-only: the hook is global and
/// mutex-protected, so install/uninstall from one thread around the traffic
/// under test.
using SocketFaultHook = std::function<SocketFault(int, bool, size_t)>;
void SetSocketFaultHookForTest(SocketFaultHook hook);
/// @}

}  // namespace net
}  // namespace errorflow

#endif  // ERRORFLOW_NET_SOCKET_H_
