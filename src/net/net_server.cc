#include "net/net_server.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/framed_conn.h"
#include "obs/log.h"
#include "util/string_util.h"

namespace errorflow {
namespace net {

namespace {

using serve::Clock;

constexpr int kListenBacklog = 512;

/// epoll_wait bound, so idle/drain sweeps run even on a silent socket set.
constexpr int kLoopTickMs = 50;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

/// \brief Scheduler-thread-to-loop-thread handoff. Completion callbacks
/// (running on scheduler workers) encode the wire frame and push it on the
/// queue; the loop takes it and appends it to the owning connection's
/// write buffer. Shared-ptr-held by both the server and every outstanding
/// callback, so a callback firing after the loop closed the queue lands
/// harmlessly (counted as a dropped response).
struct NetServer::CompletionHub {
  struct Completion {
    uint64_t conn_id = 0;
    /// Fully encoded Response or Error frame.
    std::string frame;
    /// StatusCode ordinal (0 = OK response frame).
    uint8_t code = 0;
    Clock::time_point dispatch_time;
  };

  EventQueue<Completion> completions;
  std::atomic<int64_t> in_flight{0};

  // errorflow.net.* instrumentation (docs/NETWORKING.md); the hub carries
  // the pointers so both the loop and post-shutdown callbacks reach them.
  obs::Counter* accepted;
  obs::Counter* rejected;
  obs::Counter* closed;
  obs::Counter* idle_closed;
  obs::Gauge* active;
  obs::Counter* frames_in;
  obs::Counter* frames_out;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* decode_failures;
  obs::Counter* error_frames;
  obs::Counter* backpressure_errors;
  obs::Counter* dropped_responses;
  obs::Histogram* request_seconds;

  CompletionHub() {
    auto& reg = obs::MetricsRegistry::Global();
    accepted = reg.GetCounter("errorflow.net.connections.accepted");
    rejected = reg.GetCounter("errorflow.net.connections.rejected");
    closed = reg.GetCounter("errorflow.net.connections.closed");
    idle_closed = reg.GetCounter("errorflow.net.connections.idle_closed");
    active = reg.GetGauge("errorflow.net.connections.active");
    frames_in = reg.GetCounter("errorflow.net.frames.in");
    frames_out = reg.GetCounter("errorflow.net.frames.out");
    bytes_in = reg.GetCounter("errorflow.net.bytes.in");
    bytes_out = reg.GetCounter("errorflow.net.bytes.out");
    decode_failures = reg.GetCounter("errorflow.net.decode_failures");
    error_frames = reg.GetCounter("errorflow.net.error_frames");
    backpressure_errors =
        reg.GetCounter("errorflow.net.backpressure_errors");
    dropped_responses = reg.GetCounter("errorflow.net.dropped_responses");
    request_seconds = reg.GetHistogram("errorflow.net.request_seconds");
  }

  /// Called from scheduler threads. Decrements in-flight *after* queuing,
  /// so the loop's drain check (in_flight == 0, then deliver the queue)
  /// cannot observe zero with a completion still unqueued.
  void Push(Completion c) {
    const bool delivered = completions.Push(std::move(c), /*wake=*/false);
    in_flight.fetch_sub(1, std::memory_order_acq_rel);
    if (delivered) {
      completions.Wake();
    } else {
      dropped_responses->Increment();
    }
  }
};

/// \brief Event-loop state; constructed and used only on the loop thread.
struct NetServer::Loop {
  struct Conn {
    FramedConn io;
    uint64_t id = 0;
    Clock::time_point last_activity;
    /// Wire requests dispatched from this connection, response not yet
    /// queued on `io`.
    int64_t in_flight = 0;
    bool close_after_flush = false;
  };

  NetServer* server;
  CompletionHub* hub;
  OwnedFd epoll_fd;
  std::chrono::milliseconds idle_timeout;
  bool draining = false;
  Clock::time_point drain_deadline;
  uint64_t next_conn_id = 2;  // 0 = listener, 1 = wake eventfd.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;

  explicit Loop(NetServer* s) : server(s), hub(s->hub_.get()) {
    idle_timeout = s->config_.idle_timeout;
    if (idle_timeout.count() <= 0) {
      // Satellite knob-sharing: the wire idle deadline defaults to the
      // inference server's request-deadline default.
      idle_timeout = s->server_->config().default_timeout;
    }
  }

  bool AddEpoll(int fd, uint64_t id, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = id;
    return epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void Run() {
    if (!AddEpoll(server->listener_.get(), 0, EPOLLIN) ||
        !AddEpoll(hub->completions.fd(), 1, EPOLLIN)) {
      obs::Logf(obs::LogLevel::kError,
                "net: epoll registration failed: %s", std::strerror(errno));
      return;
    }
    std::vector<epoll_event> events(256);
    while (true) {
      if (server->stop_requested_.load(std::memory_order_acquire) &&
          !draining) {
        BeginDrain();
      }
      if (draining && DrainComplete()) break;

      int n = epoll_wait(epoll_fd.get(), events.data(),
                         static_cast<int>(events.size()), kLoopTickMs);
      if (n < 0 && errno != EINTR) {
        obs::Logf(obs::LogLevel::kError, "net: epoll_wait failed: %s",
                  std::strerror(errno));
        break;
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t id = events[i].data.u64;
        if (id == 0) {
          HandleAccept();
        } else if (id == 1) {
          DeliverCompletions();
        } else {
          auto it = conns.find(id);
          if (it == conns.end()) continue;  // Closed earlier this batch.
          Conn* c = it->second.get();
          if (events[i].events & (EPOLLHUP | EPOLLERR)) {
            CloseConn(c, /*idle=*/false);
            continue;
          }
          bool alive = true;
          if (events[i].events & EPOLLIN) alive = HandleRead(c);
          if (alive && (events[i].events & EPOLLOUT)) FlushWrites(c);
        }
      }
      SweepIdle();
    }
    // Hand any still-running callbacks off to the drop path before the
    // loop state (and its conn ids) disappears.
    hub->dropped_responses->Increment(hub->completions.Close());
    while (!conns.empty()) {
      CloseConn(conns.begin()->second.get(), /*idle=*/false);
    }
  }

  void BeginDrain() {
    draining = true;
    drain_deadline = Clock::now() + server->config_.drain_timeout;
    // Stop accepting; existing connections keep flushing.
    epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, server->listener_.get(),
              nullptr);
    obs::Logf(obs::LogLevel::kInfo,
              "net: draining (%lld connections, %lld in flight)",
              static_cast<long long>(conns.size()),
              static_cast<long long>(
                  hub->in_flight.load(std::memory_order_acquire)));
  }

  bool DrainComplete() {
    if (Clock::now() >= drain_deadline) return true;
    if (hub->in_flight.load(std::memory_order_acquire) != 0) return false;
    // Every completion is queued once in_flight reads zero.
    DeliverCompletions();
    for (const auto& [id, c] : conns) {
      if (c->io.pending()) return false;
    }
    return true;
  }

  void HandleAccept() {
    while (true) {
      int fd = accept4(server->listener_.get(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;
      }
      OwnedFd owned(fd);
      const int64_t active =
          server->active_connections_.load(std::memory_order_relaxed);
      if (active >= server->config_.max_connections || draining) {
        hub->rejected->Increment();
        // Best-effort typed refusal so the client sees backpressure, not
        // a silent RST. The socket buffer of a fresh connection always
        // has room for one small frame; if not, the close still lands.
        ErrorFrame err;
        err.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
        err.message = draining ? "net: server draining"
                               : "net: connection limit reached";
        const std::string frame = EncodeError(0, err);
        (void)::send(owned.get(), frame.data(), frame.size(),
                     MSG_NOSIGNAL | MSG_DONTWAIT);
        continue;  // OwnedFd closes it.
      }
      SetNoDelay(owned.get());
      auto conn = std::make_unique<Conn>();
      conn->io = FramedConn(std::move(owned));
      conn->id = next_conn_id++;
      conn->last_activity = Clock::now();
      if (!conn->io.Watch(epoll_fd.get(), conn->id)) {
        hub->rejected->Increment();
        continue;
      }
      hub->accepted->Increment();
      server->active_connections_.fetch_add(1, std::memory_order_relaxed);
      hub->active->Set(static_cast<double>(
          server->active_connections_.load(std::memory_order_relaxed)));
      conns.emplace(conn->id, std::move(conn));
    }
  }

  /// Returns false when the connection was closed.
  bool HandleRead(Conn* c) {
    const FramedConn::Transfer in = c->io.ReadFrames(
        util::DecodeLimits::Default(),
        [this, c](const FrameHeader& header, const char* payload) {
          return HandleFrame(c, header, payload);
        });
    if (in.bytes > 0) {
      hub->bytes_in->Increment(in.bytes);
      c->last_activity = Clock::now();
    }
    if (!in.framing.ok() && !c->close_after_flush) {
      // Bad magic or a bogus length: framing is byte-position-dependent,
      // with no resynchronization point, so answer once and hang up.
      hub->decode_failures->Increment();
      QueueError(c, 0, in.framing);
      c->close_after_flush = true;
    }
    if (in.closed) {
      // Peer closed or hard error — mid-frame or not, reclaim
      // everything; in-flight responses become dropped_responses.
      CloseConn(c, /*idle=*/false);
      return false;
    }
    return FlushWrites(c);
  }

  /// A non-OK return stops parsing this connection for good.
  Status HandleFrame(Conn* c, const FrameHeader& header,
                     const char* payload) {
    hub->frames_in->Increment();
    switch (header.type) {
      case FrameType::kPing:
        QueueFrame(c, EncodePong(header.request_id));
        break;
      case FrameType::kPong:
        break;  // Liveness echo reply; nothing to do.
      case FrameType::kSubmit:
        HandleSubmit(c, header, payload);
        break;
      case FrameType::kResponse:
      case FrameType::kError: {
        // Server-to-client types arriving at the server mean the peer is
        // confused about its role; the stream has no future.
        const Status wrong = Status::InvalidArgument(
            "net: server-bound frame of server-to-client type");
        hub->decode_failures->Increment();
        QueueError(c, header.request_id, wrong);
        c->close_after_flush = true;
        return wrong;
      }
    }
    return Status::OK();
  }

  void HandleSubmit(Conn* c, const FrameHeader& header,
                    const char* payload) {
    auto submit = DecodeSubmit(payload, header.payload_len,
                               util::DecodeLimits::Default());
    if (!submit.ok()) {
      // The frame boundary itself was sound, so the stream stays usable:
      // reject just this request.
      hub->decode_failures->Increment();
      QueueError(c, header.request_id, submit.status());
      return;
    }
    if (draining) {
      QueueError(c, header.request_id,
                 Status::FailedPrecondition("net: server draining"));
      return;
    }
    c->in_flight += 1;
    hub->in_flight.fetch_add(1, std::memory_order_acq_rel);
    auto hub_ref = server->hub_;  // Keeps the hub alive past Shutdown().
    const uint64_t conn_id = c->id;
    const uint64_t request_id = header.request_id;
    const Clock::time_point dispatch_time = Clock::now();
    Status status = server->server_->SubmitAsync(
        ToInferenceRequest(std::move(*submit)),
        [hub_ref, conn_id, request_id,
         dispatch_time](serve::InferenceResponse&& resp) {
          CompletionHub::Completion done;
          done.conn_id = conn_id;
          done.dispatch_time = dispatch_time;
          if (resp.ok()) {
            ResponseFrame rf;
            rf.format = static_cast<uint8_t>(resp.format);
            rf.predicted_qoi_bound = resp.predicted_qoi_bound;
            rf.batch_requests =
                static_cast<uint32_t>(resp.batch_requests);
            rf.batch_rows = static_cast<uint32_t>(resp.batch_rows);
            rf.queue_seconds = resp.queue_seconds;
            rf.total_seconds = resp.total_seconds;
            rf.output = std::move(resp.output);
            done.frame = EncodeResponse(request_id, rf);
          } else {
            done.code = static_cast<uint8_t>(resp.status.code());
            ErrorFrame err;
            err.code = done.code;
            err.message = resp.status.message();
            done.frame = EncodeError(request_id, err);
          }
          hub_ref->Push(std::move(done));
        });
    if (!status.ok()) {
      // Synchronous typed rejection: the callback will never fire.
      c->in_flight -= 1;
      hub->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      QueueError(c, request_id, status);
    }
  }

  void DeliverCompletions() {
    for (const CompletionHub::Completion& done : hub->completions.Take()) {
      auto it = conns.find(done.conn_id);
      if (it == conns.end()) {
        // Connection died while the request executed.
        hub->dropped_responses->Increment();
        continue;
      }
      Conn* c = it->second.get();
      c->in_flight -= 1;
      hub->request_seconds->Record(SecondsSince(done.dispatch_time));
      if (done.code != 0) {
        CountErrorFrame(static_cast<StatusCode>(done.code));
      }
      QueueFrame(c, done.frame);
      FlushWrites(c);
    }
  }

  void CountErrorFrame(StatusCode code) {
    hub->error_frames->Increment();
    if (code == StatusCode::kResourceExhausted) {
      hub->backpressure_errors->Increment();
    }
  }

  void QueueError(Conn* c, uint64_t request_id, const Status& status) {
    CountErrorFrame(status.code());
    ErrorFrame err;
    err.code = static_cast<uint8_t>(status.code());
    err.message = status.message();
    QueueFrame(c, EncodeError(request_id, err));
  }

  void QueueFrame(Conn* c, const std::string& frame) {
    hub->frames_out->Increment();
    c->io.Queue(frame);
  }

  /// Returns false when the connection was closed.
  bool FlushWrites(Conn* c) {
    const FramedConn::Transfer out = c->io.Flush();
    if (out.bytes > 0) {
      hub->bytes_out->Increment(out.bytes);
      c->last_activity = Clock::now();
    }
    if (out.closed || (c->close_after_flush && !c->io.pending())) {
      CloseConn(c, /*idle=*/false);
      return false;
    }
    return true;
  }

  void SweepIdle() {
    if (conns.empty()) return;
    const Clock::time_point now = Clock::now();
    std::vector<Conn*> expired;
    for (auto& [id, c] : conns) {
      // A connection awaiting a response is the server's debt, not idle;
      // scheduler deadlines bound how long that state can last.
      if (c->in_flight == 0 && now - c->last_activity > idle_timeout) {
        expired.push_back(c.get());
      }
    }
    for (Conn* c : expired) CloseConn(c, /*idle=*/true);
  }

  void CloseConn(Conn* c, bool idle) {
    c->io.Close();
    hub->closed->Increment();
    if (idle) hub->idle_closed->Increment();
    server->active_connections_.fetch_sub(1, std::memory_order_relaxed);
    hub->active->Set(static_cast<double>(
        server->active_connections_.load(std::memory_order_relaxed)));
    conns.erase(c->id);  // Destroys *c and closes the socket.
  }
};

NetServer::NetServer(serve::InferenceServer* server, NetServerConfig config)
    : server_(server), config_(std::move(config)) {}

NetServer::~NetServer() { Shutdown(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  // Reap a previous loop (after Shutdown, or one that died on an epoll
  // error) before rebinding.
  if (loop_thread_.joinable()) loop_thread_.join();
  EF_ASSIGN_OR_RETURN(listener_,
                      ListenTcp(config_.bind_address, config_.port,
                                kListenBacklog, &port_));
  hub_ = std::make_shared<CompletionHub>();
  if (!hub_->completions.Open()) {
    return Status::IOError(util::StrFormat("net: eventfd failed: %s",
                                           std::strerror(errno)));
  }
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { RunLoop(); });
  // Surface the owning serve config at bind time: a wire deployment's
  // capacity posture (adaptive SLO) should be readable from one
  // startup line without grepping the serve layer's own logs.
  const serve::ServerConfig& sc = server_->config();
  obs::Logf(obs::LogLevel::kInfo,
            "net: listening on %s:%u (serve: slo p99 %.1fms%s)",
            config_.bind_address.c_str(), static_cast<unsigned>(port_),
            sc.slo_p99_seconds * 1e3,
            sc.slo_p99_seconds > 0.0 ? " adaptive" : " fixed-batch");
  return Status::OK();
}

void NetServer::RunLoop() {
  Loop loop(this);
  int efd = epoll_create1(EPOLL_CLOEXEC);
  if (efd < 0) {
    obs::Logf(obs::LogLevel::kError, "net: epoll_create1 failed: %s",
              std::strerror(errno));
    running_.store(false, std::memory_order_release);
    return;
  }
  loop.epoll_fd = OwnedFd(efd);
  loop.Run();
  running_.store(false, std::memory_order_release);
}

Status NetServer::Shutdown() {
  if (!loop_thread_.joinable()) return Status::OK();
  stop_requested_.store(true, std::memory_order_release);
  hub_->completions.Wake();
  loop_thread_.join();
  listener_ = OwnedFd();
  obs::Logf(obs::LogLevel::kInfo, "net: shut down (port %u)",
            static_cast<unsigned>(port_));
  return Status::OK();
}

int64_t NetServer::in_flight_requests() const {
  return hub_ ? hub_->in_flight.load(std::memory_order_acquire) : 0;
}

}  // namespace net
}  // namespace errorflow
