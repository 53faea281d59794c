#include "net/framed_conn.h"

#include <sys/epoll.h>

namespace errorflow {
namespace net {

namespace {

/// Read-chunk size; also the write-buffer prefix-compaction threshold.
constexpr size_t kIoChunkBytes = 64 * 1024;

}  // namespace

bool FramedConn::Ctl(int op, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag_;
  return epoll_ctl(epoll_fd_, op, fd_.get(), &ev) == 0;
}

bool FramedConn::Watch(int epoll_fd, uint64_t tag) {
  epoll_fd_ = epoll_fd;
  tag_ = tag;
  return Ctl(EPOLL_CTL_ADD, EPOLLIN);
}

void FramedConn::Close() {
  if (epoll_fd_ >= 0 && fd_.valid()) Ctl(EPOLL_CTL_DEL, 0);
  fd_ = OwnedFd();
}

FramedConn::Transfer FramedConn::ReadFrames(const util::DecodeLimits& limits,
                                            const FrameFn& on_frame) {
  Transfer t;
  char buf[kIoChunkBytes];
  while (true) {
    const IoOutcome out = ReadSome(fd_.get(), buf, sizeof(buf));
    if (out.would_block) break;
    if (out.n <= 0) {
      t.closed = true;
      break;
    }
    t.bytes += static_cast<size_t>(out.n);
    if (!parsing_) continue;
    rbuf_.append(buf, static_cast<size_t>(out.n));
    size_t consumed = 0;
    while (parsing_) {
      FrameHeader header;
      size_t frame_size = 0;
      auto extracted = TryExtractFrame(rbuf_.data() + consumed,
                                       rbuf_.size() - consumed, limits,
                                       &header, &frame_size);
      if (extracted.ok() && *extracted == ExtractResult::kNeedMore) break;
      t.framing = extracted.ok()
                      ? on_frame(header, rbuf_.data() + consumed +
                                             kFrameHeaderBytes)
                      : extracted.status();
      consumed += frame_size;
      parsing_ = t.framing.ok();
    }
    rbuf_.erase(0, parsing_ ? consumed : rbuf_.size());
  }
  return t;
}

FramedConn::Transfer FramedConn::Flush() {
  Transfer t;
  while (pending()) {
    const IoOutcome out =
        WriteSome(fd_.get(), wbuf_.data() + wpos_, wbuf_.size() - wpos_);
    if (out.would_block) break;
    if (out.n <= 0) {
      t.closed = true;
      return t;
    }
    wpos_ += static_cast<size_t>(out.n);
    t.bytes += static_cast<size_t>(out.n);
  }
  if (!pending() || wpos_ >= kIoChunkBytes) {
    wbuf_.erase(0, wpos_);
    wpos_ = 0;
  }
  if (epoll_fd_ >= 0 && pending() != want_write_) {
    want_write_ = pending();
    Ctl(EPOLL_CTL_MOD, want_write_ ? EPOLLIN | EPOLLOUT : EPOLLIN);
  }
  return t;
}

}  // namespace net
}  // namespace errorflow
