#ifndef ERRORFLOW_NET_LOAD_RIG_H_
#define ERRORFLOW_NET_LOAD_RIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "serve/server.h"
#include "util/result.h"

namespace errorflow {
namespace net {

/// \brief One constant-rate segment of an open-loop run. Chaining phases
/// with different rates models bursts: e.g. a steady phase, a burst above
/// the server's saturation point, then recovery.
struct LoadPhase {
  double seconds = 1.0;
  /// Offered arrival rate in requests/second (Poisson arrivals:
  /// exponential inter-arrival gaps).
  double rate = 100.0;
};

/// \brief Open-loop load configuration. Arrivals are scheduled by a
/// Poisson clock that does not wait for responses, so queue buildup and
/// shed/backpressure behavior at and beyond saturation are observable.
/// The schedule depends only on `phases` and `seed`, so both transports
/// offer exactly the same arrivals.
struct LoadConfig {
  /// In-process transport: requests go straight into this running
  /// server's `SubmitAsync` from the rig thread. When null, the socket
  /// transport drives a NetServer at host:port over `connections`
  /// clients instead. In-process minus socket is the network tax.
  serve::InferenceServer* server = nullptr;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Socket transport only: concurrent client connections; arrivals
  /// round-robin across them.
  int connections = 64;
  std::vector<LoadPhase> phases = {{1.0, 100.0}};
  /// Request templates (model x tolerance x input), cycled round-robin
  /// across arrivals. The socket transport encodes each payload once and
  /// re-frames it per request id; the in-process transport converts a copy
  /// per arrival through `ToInferenceRequest`, as the wire server does.
  std::vector<SubmitFrame> requests;
  uint64_t seed = 1;
};

/// \brief Aggregated outcome of one open-loop run, for either transport.
/// Latency is measured from each request's *scheduled* Poisson arrival
/// time, not its send time, so sender-side stalls cannot hide server
/// queueing delay (coordinated-omission-safe).
struct LoadStats {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  // OK responses per wall second.
  double wall_seconds = 0.0;
  uint64_t submitted = 0;
  uint64_t completed = 0;     // OK responses.
  uint64_t rejected = 0;      // Typed rejections, any code.
  uint64_t backpressure = 0;  // ... of which kResourceExhausted.
  uint64_t deadline_shed = 0;  // ... of which kDeadlineExceeded.
  uint64_t unanswered = 0;  // Outstanding when the drain window closed.
  uint64_t overload_dropped = 0;  // Rig-side max-outstanding drops.
  uint64_t connect_failures = 0;   // Socket transport only.
  uint64_t connection_errors = 0;  // Connections that died mid-run.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Rig self-measurement. Lateness is the time each request's send
  /// returned (socket write queued, or in-process admission decided)
  /// minus its scheduled arrival; busy share is the fraction of wall time the rig
  /// thread spent outside `epoll_wait` (sending, in-process admission,
  /// parsing responses). Lateness p99 near the mean inter-arrival gap, or
  /// a busy share near 1, means the rig rather than the server set the
  /// pace.
  double lateness_p50_ms = 0.0;
  double lateness_p99_ms = 0.0;
  double busy_share = 0.0;

  /// Multi-line human-readable block.
  std::string Summary() const;
};

/// \brief Runs the configured phases on one engine thread: a precomputed
/// arrival schedule, one epoll loop (socket connections, or the eventfd
/// in-process completions signal), responses matched to scheduled arrival
/// times by request id. Arrivals beyond 100k outstanding requests are
/// dropped rig-side; after the last phase the loop collects late responses
/// for 3 s before counting the remainder as unanswered.
Result<LoadStats> RunLoad(const LoadConfig& config);

}  // namespace net
}  // namespace errorflow

#endif  // ERRORFLOW_NET_LOAD_RIG_H_
