#ifndef ERRORFLOW_NET_FRAMED_CONN_H_
#define ERRORFLOW_NET_FRAMED_CONN_H_

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "util/bytes.h"
#include "util/result.h"

namespace errorflow {
namespace net {

/// \brief One nonblocking socket carrying EFN1 frames: the fd, a read
/// buffer that reassembles frames across partial reads, and a write buffer
/// that survives partial writes. The server loop, the load rig and the
/// client move every byte through one of these, so reading, parsing and
/// writing each happen in one place.
class FramedConn {
 public:
  /// What one ReadFrames() or Flush() call moved.
  struct Transfer {
    size_t bytes = 0;
    /// EOF or an I/O error: the stream is gone.
    bool closed = false;
    /// Non-OK on the call where parsing stopped for good: the frame that
    /// failed to extract (no resynchronization point), or the status
    /// `on_frame` refused a frame with.
    Status framing;
  };
  /// Receives one complete frame; a non-OK return stops parsing.
  using FrameFn = std::function<Status(const FrameHeader&, const char*)>;

  FramedConn() = default;
  explicit FramedConn(OwnedFd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }
  /// True while queued bytes wait to be written.
  bool pending() const { return wpos_ < wbuf_.size(); }

  /// Registers the socket on `epoll_fd` under `tag`: EPOLLIN always,
  /// EPOLLOUT exactly while bytes wait. Unwatched connections leave write
  /// readiness to the caller.
  bool Watch(int epoll_fd, uint64_t tag);
  /// Unregisters and closes the socket.
  void Close();

  /// Reads until EAGAIN, handing each complete frame to `on_frame` and
  /// dropping the bytes it consumed. Once parsing has stopped, later bytes
  /// are read and dropped unparsed, in this call and every later one.
  Transfer ReadFrames(const util::DecodeLimits& limits,
                      const FrameFn& on_frame);

  /// Appends one encoded frame to the write buffer.
  void Queue(const std::string& frame) { wbuf_.append(frame); }
  /// Writes queued bytes until EAGAIN or none wait. The flushed prefix is
  /// compacted at 64 KB, so a slow reader does not pin every byte it was
  /// ever sent.
  Transfer Flush();

 private:
  bool Ctl(int op, uint32_t events);

  OwnedFd fd_;
  int epoll_fd_ = -1;
  uint64_t tag_ = 0;
  bool want_write_ = false;
  bool parsing_ = true;
  std::string rbuf_;
  std::string wbuf_;
  /// Bytes of wbuf_ already written.
  size_t wpos_ = 0;
};

/// \brief Hands items from any thread to one epoll loop: a mutex-guarded
/// vector plus an eventfd the loop watches. Once Close()d it refuses
/// pushes, so a producer that outlives the loop lands harmlessly.
template <typename T>
class EventQueue {
 public:
  /// Opens the eventfd; false when the kernel refuses one.
  bool Open() {
    wake_ = OwnedFd(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    return wake_.valid();
  }
  int fd() const { return wake_.get(); }

  /// Queues `item`, then signals unless `wake` is false (the caller then
  /// calls Wake() itself). False, with the item dropped, after Close().
  bool Push(T item, bool wake = true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    if (wake) Wake();
    return true;
  }

  void Wake() {
    const uint64_t one = 1;
    // The counter saturates rather than blocks under EFD_NONBLOCK; a
    // failed write still leaves earlier signals pending.
    (void)::write(wake_.get(), &one, sizeof(one));
  }

  /// Clears the signal and takes every queued item.
  std::vector<T> Take() {
    uint64_t signals = 0;
    (void)::read(wake_.get(), &signals, sizeof(signals));
    std::vector<T> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(items_);
    return out;
  }

  /// Refuses further pushes; returns how many items were never taken.
  size_t Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    const size_t untaken = items_.size();
    items_.clear();
    return untaken;
  }

 private:
  std::mutex mu_;
  std::vector<T> items_;
  bool closed_ = false;
  OwnedFd wake_;
};

}  // namespace net
}  // namespace errorflow

#endif  // ERRORFLOW_NET_FRAMED_CONN_H_
