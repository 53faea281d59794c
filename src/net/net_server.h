#ifndef ERRORFLOW_NET_NET_SERVER_H_
#define ERRORFLOW_NET_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/result.h"

namespace errorflow {
namespace net {

/// \brief Wire-listener tuning. The inference-side knobs (queue depth,
/// batching, formats, default deadline) stay on `serve::ServerConfig`;
/// this struct only shapes the socket layer.
struct NetServerConfig {
  /// Loopback by default: exposing an unauthenticated tensor port beyond
  /// the host is an explicit decision.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via `port()` after Start().
  uint16_t port = 0;
  /// Accepts beyond this cap are answered with a best-effort
  /// kResourceExhausted Error frame and closed.
  int64_t max_connections = 4096;
  /// Connections with no I/O progress and no in-flight request for this
  /// long are closed (slow-loris reclamation). Zero defers to the owning
  /// `serve::ServerConfig::default_timeout` — one knob for wire and
  /// in-process deadlines — resolved at Start().
  std::chrono::milliseconds idle_timeout{0};
  /// Shutdown() waits at most this long for in-flight requests to finish
  /// and response buffers to flush before force-closing.
  std::chrono::milliseconds drain_timeout{5000};
};

/// \brief TCP front end for an `InferenceServer`: accepts connections,
/// reassembles length-prefixed frames across partial reads, dispatches
/// Submit frames through `InferenceServer::SubmitAsync`, and writes
/// Response/Error frames back, surviving partial writes via per-connection
/// buffers. Single epoll event-loop thread; completions cross back from
/// scheduler threads through an eventfd-signaled queue, so the loop never
/// blocks on inference.
///
/// Every typed admission rejection becomes a wire Error frame carrying the
/// StatusCode ordinal — queue-full backpressure (kResourceExhausted) is
/// distinguishable from a shed deadline or a malformed request. All
/// activity is observable under `errorflow.net.*` (docs/NETWORKING.md).
///
/// Lifecycle: construct over a running (or about-to-run) InferenceServer,
/// Start(), serve, Shutdown(). For a loss-free drain, shut the
/// InferenceServer down *first* (its drain fulfills every in-flight
/// request, which this layer then flushes), then Shutdown() here.
class NetServer {
 public:
  NetServer(serve::InferenceServer* server, NetServerConfig config = {});

  /// Shuts down if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the event loop. Idempotent while running;
  /// after a Shutdown() it rebinds (a fresh ephemeral port when
  /// `config.port == 0`) and serves again.
  Status Start();

  /// Graceful drain: stops accepting, waits (bounded by `drain_timeout`)
  /// for in-flight requests to complete and write buffers to flush, then
  /// closes every connection and joins the loop. Idempotent.
  Status Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (after Start()).
  uint16_t port() const { return port_; }

  /// Currently open client connections.
  int64_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  /// Wire requests dispatched into the InferenceServer and not yet
  /// answered (their completion callback has not fired).
  int64_t in_flight_requests() const;

 private:
  struct Loop;  // Event-loop state, owned by the loop thread.
  struct CompletionHub;

  void RunLoop();

  serve::InferenceServer* server_;
  NetServerConfig config_;
  uint16_t port_ = 0;

  OwnedFd listener_;
  std::shared_ptr<CompletionHub> hub_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<int64_t> active_connections_{0};
};

}  // namespace net
}  // namespace errorflow

#endif  // ERRORFLOW_NET_NET_SERVER_H_
