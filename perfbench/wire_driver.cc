#include "wire_driver.h"

#include <sys/epoll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

namespace perfbench {

namespace net = errorflow::net;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<WireDriver> WireDriver::Connect(uint16_t port, int connections) {
  if (connections < 1) {
    return Status::InvalidArgument("wire driver needs >= 1 connection");
  }
  WireDriver driver;
  const int epfd = epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) return Errno("epoll_create1");
  driver.epoll_ = net::OwnedFd(epfd);
  driver.conns_.resize(static_cast<size_t>(connections));
  for (size_t i = 0; i < driver.conns_.size(); ++i) {
    auto fd = net::ConnectTcp("127.0.0.1", port, std::chrono::seconds(5));
    if (!fd.ok()) return fd.status();
    Status st = net::SetNonBlocking(fd->get());
    if (!st.ok()) return st;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (epoll_ctl(epfd, EPOLL_CTL_ADD, fd->get(), &ev) != 0) {
      return Errno("epoll_ctl");
    }
    driver.conns_[i].fd = std::move(*fd);
  }
  return driver;
}

Status WireDriver::Flush(size_t idx) {
  Conn& c = conns_[idx];
  while (c.wpos < c.wbuf.size()) {
    const net::IoOutcome out =
        net::WriteSome(c.fd.get(), c.wbuf.data() + c.wpos,
                       c.wbuf.size() - c.wpos);
    if (out.would_block) break;
    if (out.n <= 0) return Status::IOError("wire driver: write failed");
    c.wpos += static_cast<size_t>(out.n);
  }
  if (c.wpos == c.wbuf.size()) {
    c.wbuf.clear();
    c.wpos = 0;
  }
  const bool want_write = !c.wbuf.empty();
  if (want_write != c.want_write) {
    epoll_event ev{};
    ev.events = want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u64 = idx;
    if (epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev) != 0) {
      return Errno("epoll_ctl");
    }
    c.want_write = want_write;
  }
  return Status::OK();
}

Status WireDriver::ReadAvailable(size_t idx, uint64_t first_id,
                                 double phase_start, WirePhase* phase,
                                 int64_t* answered) {
  Conn& c = conns_[idx];
  const errorflow::util::DecodeLimits& limits =
      errorflow::util::DecodeLimits::Default();
  char buf[64 * 1024];
  while (true) {
    const net::IoOutcome out = net::ReadSome(c.fd.get(), buf, sizeof(buf));
    if (out.would_block) return Status::OK();
    if (out.n <= 0) return Status::IOError("wire driver: connection closed");
    c.rbuf.append(buf, static_cast<size_t>(out.n));
    const double now = NowSeconds() - phase_start;
    size_t consumed = 0;
    while (true) {
      net::FrameHeader header;
      size_t frame_size = 0;
      auto extracted =
          net::TryExtractFrame(c.rbuf.data() + consumed,
                               c.rbuf.size() - consumed, limits, &header,
                               &frame_size);
      if (!extracted.ok()) return extracted.status();
      if (*extracted == net::ExtractResult::kNeedMore) break;
      const char* payload = c.rbuf.data() + consumed + net::kFrameHeaderBytes;
      consumed += frame_size;
      if (header.request_id < first_id ||
          header.request_id - first_id >= phase->answers.size()) {
        continue;  // An earlier phase's request, or connection-scoped.
      }
      WireAnswer& answer = phase->answers[header.request_id - first_id];
      if (answer.kind != WireAnswer::Kind::kUnanswered) {
        return Status::Corruption("wire driver: request answered twice");
      }
      if (header.type == net::FrameType::kResponse) {
        auto resp = net::DecodeResponse(payload, header.payload_len, limits);
        if (!resp.ok()) return resp.status();
        answer.response = std::move(*resp);
        answer.kind = WireAnswer::Kind::kOk;
      } else if (header.type == net::FrameType::kError) {
        auto err = net::DecodeError(payload, header.payload_len, limits);
        if (!err.ok()) return err.status();
        answer.error_code = err->code;
        answer.kind = WireAnswer::Kind::kError;
      } else {
        return Status::Corruption("wire driver: unexpected frame type");
      }
      answer.done = now;
      *answered += 1;
    }
    if (consumed > 0) c.rbuf.erase(0, consumed);
  }
}

Result<WirePhase> WireDriver::Run(const std::vector<double>& due,
                                  const std::vector<size_t>& payload_of,
                                  const std::vector<std::string>& payloads,
                                  double drain_seconds) {
  if (due.size() != payload_of.size()) {
    return Status::InvalidArgument("wire driver: schedule size mismatch");
  }
  for (size_t p : payload_of) {
    if (p >= payloads.size()) {
      return Status::InvalidArgument("wire driver: bad payload index");
    }
  }
  WirePhase phase;
  const size_t n = due.size();
  phase.answers.resize(n);
  phase.lateness_ms.reserve(n);
  const uint64_t first_id = next_id_;
  next_id_ += n;
  const double end_of_sends = n == 0 ? 0.0 : due.back();

  std::vector<epoll_event> events(64);
  const double phase_start = NowSeconds();
  double waiting = 0.0;
  size_t next = 0;
  int64_t answered = 0;
  while (true) {
    double t = NowSeconds() - phase_start;
    while (next < n && due[next] <= t) {
      const size_t conn = next % conns_.size();
      const std::string frame = net::EncodeFrame(
          net::FrameType::kSubmit, first_id + next, payloads[payload_of[next]]);
      conns_[conn].wbuf += frame;
      phase.bytes_sent += static_cast<int64_t>(frame.size());
      Status st = Flush(conn);
      if (!st.ok()) return st;
      t = NowSeconds() - phase_start;
      phase.answers[next].sent = t;
      phase.lateness_ms.push_back((t - due[next]) * 1e3);
      next += 1;
      if (next == n) {
        phase.outstanding_at_last_send = static_cast<int64_t>(n) - answered;
      }
    }
    if (next == n && (answered == static_cast<int64_t>(n) ||
                      t >= end_of_sends + drain_seconds)) {
      break;
    }
    const double until =
        next < n ? due[next] - t : end_of_sends + drain_seconds - t;
    const double wait = std::clamp(until, 0.0, 0.01);
    timespec timeout{};
    timeout.tv_nsec = static_cast<long>(wait * 1e9);
    const double wait_start = NowSeconds();
    const int got =
        epoll_pwait2(epoll_.get(), events.data(),
                     static_cast<int>(events.size()), &timeout, nullptr);
    waiting += NowSeconds() - wait_start;
    if (got < 0 && errno != EINTR) return Errno("epoll_pwait2");
    for (int i = 0; i < got; ++i) {
      const size_t idx = static_cast<size_t>(events[i].data.u64);
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        return Status::IOError("wire driver: connection error");
      }
      if (events[i].events & EPOLLIN) {
        Status st = ReadAvailable(idx, first_id, phase_start, &phase,
                                  &answered);
        if (!st.ok()) return st;
      }
      if (events[i].events & EPOLLOUT) {
        Status st = Flush(idx);
        if (!st.ok()) return st;
      }
    }
  }
  phase.wall_seconds = NowSeconds() - phase_start;
  phase.busy_seconds = phase.wall_seconds - waiting;
  return phase;
}

}  // namespace perfbench
