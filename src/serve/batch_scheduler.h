#ifndef ERRORFLOW_SERVE_BATCH_SCHEDULER_H_
#define ERRORFLOW_SERVE_BATCH_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "util/thread_pool.h"

namespace errorflow {
namespace serve {

/// \brief Deterministic fractional sampler: over any window of N ticks,
/// fires on floor-pattern-exact `fraction * N` of them, with no RNG and no
/// floating-point accumulation.
///
/// The fraction is fixed to a 32-bit numerator at construction and
/// accumulated in integers (Bresenham-style), so the firing pattern stays
/// exact forever: the old floating-point formula
/// `floor((k+1)f) > floor(kf)` silently stops firing once `k * f` crosses
/// 2^53 (consecutive doubles there are 2 apart, so the products collapse
/// onto the same value). Because 2^32 divides 2^64, the accumulator even
/// wraps seamlessly. Thread-safe.
class AuditSampler {
 public:
  /// `fraction` is clamped to [0, 1]; 0 never fires, 1 always fires.
  /// `initial_accumulator` seeds the phase (test hook for pinning
  /// behavior at arbitrary points in the sequence).
  explicit AuditSampler(double fraction, uint64_t initial_accumulator = 0);

  /// Advances the sequence one tick; true on the sampled ticks.
  bool Tick();

  static constexpr uint64_t kScale = 1ull << 32;

 private:
  uint64_t numerator_;
  std::atomic<uint64_t> accumulator_;
};

/// \brief FIFO request queue plus a dispatcher that fuses compatible
/// requests — same (model, format, per-row shape) — into batches and
/// executes them on a worker pool.
///
/// The dispatcher thread pops the oldest admitted request, sweeps the
/// queue for others with the same fuse key until the current fuse budget
/// (fixed `max_batch_rows`, or the adaptive controller's limit when an
/// SLO is configured), and hands the group to the pool. Workers lease the
/// quantized variant from the registry (a cache hit after the first
/// batch), run one fused Predict, then scatter output rows back to the
/// per-request completion callbacks. Requests whose deadline passed while
/// queued are shed with kDeadlineExceeded at dispatch time, before any
/// execution; under SLO overload, requests whose remaining deadline budget
/// is below the execution-time EWMA are shed early for the same reason.
class BatchScheduler {
 public:
  /// Reads the batching, SLO and audit fields of `config`; audits measure
  /// achieved error in `config.norm`. InferenceServer::Start checks the
  /// ranges; the scheduler assumes them.
  BatchScheduler(ModelRegistry* registry, ServerConfig config);

  /// Calls Shutdown() if still running.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Starts the dispatcher thread and the worker pool. Idempotent.
  Status Start();

  /// Enqueues an admitted request. On OK, `on_complete` is invoked exactly
  /// once — from a dispatcher or worker thread — when the request
  /// executes, is shed, or fails; it must not block. On a non-OK return
  /// (kFailedPrecondition: not running) the callback is never invoked.
  Status EnqueueAsync(InferenceRequest request, AdmissionDecision decision,
                      std::function<void(InferenceResponse&&)> on_complete);

  /// Admitted requests not yet dispatched (the admission backpressure
  /// signal).
  int64_t queue_depth() const;

  /// Drains the queue (every queued request still executes or is shed),
  /// then stops the dispatcher and joins the workers. Idempotent AND
  /// thread-safe: concurrent callers all block until the drain completes,
  /// and exactly one of them joins the dispatcher.
  Status Shutdown();

  bool running() const;

  /// Current fuse budget in rows (== max_batch_rows when no SLO is set).
  int64_t batch_rows_limit() const {
    return batch_rows_limit_.load(std::memory_order_relaxed);
  }

  /// True while the adaptive controller's last latency window exceeded
  /// the SLO — the signal admission uses to tighten backpressure.
  bool overloaded() const {
    return overloaded_.load(std::memory_order_relaxed);
  }

  /// Forces the overload flag and the execution-time EWMA, so tests can
  /// pin the early-shed path without racing the controller. Test-only.
  void SetOverloadForTest(bool overloaded, double exec_ewma_seconds) {
    overloaded_.store(overloaded, std::memory_order_relaxed);
    exec_ewma_seconds_.store(exec_ewma_seconds, std::memory_order_relaxed);
  }

 private:
  struct Pending {
    InferenceRequest request;
    AdmissionDecision decision;
    std::function<void(InferenceResponse&&)> on_complete;
    Clock::time_point enqueue_time;
  };

  void DispatchLoop();
  /// One adaptive-controller step: reads the latency histogram's windowed
  /// p99 and resizes the fuse budget. Dispatcher thread only.
  void AdaptStep();
  /// Runs on a pool worker: executes one fused group.
  void ExecuteGroup(std::vector<Pending> group);
  /// Fulfills every request in `group` with `status`.
  static void FailGroup(std::vector<Pending>* group, const Status& status);
  /// Re-executes `fused` on the FP32 base, records one ledger per request
  /// in `live` against `output`, and (when configured) invalidates the
  /// violating variant. `rows` is the fused row count.
  void AuditGroup(const std::vector<Pending>& live,
                  const tensor::Tensor& fused, const tensor::Tensor& output,
                  int64_t rows);

  ModelRegistry* registry_;
  ServerConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Signals shutdown completion to concurrent Shutdown() callers.
  std::condition_variable shutdown_cv_;
  std::deque<Pending> queue_;
  bool running_ = false;
  bool stopping_ = false;
  std::thread dispatcher_;
  std::unique_ptr<util::ThreadPool> pool_;

  /// Adaptive fuse budget; fixed at max_batch_rows when no SLO is set.
  std::atomic<int64_t> batch_rows_limit_;
  std::atomic<bool> overloaded_{false};
  /// EWMA of fused-batch execution seconds (the early-shed horizon).
  std::atomic<double> exec_ewma_seconds_{0.0};
  /// Dispatcher-thread state for the controller cadence and its windowed
  /// histogram read.
  int batches_since_adapt_ = 0;
  obs::HistogramSnapshot adapt_baseline_;

  // docs/SERVING.md metric conventions.
  obs::Gauge* queue_depth_gauge_;
  obs::Counter* completed_;
  obs::Counter* timeouts_;
  obs::Counter* exec_failures_;
  obs::Histogram* batch_requests_hist_;
  obs::Histogram* batch_rows_hist_;
  obs::Histogram* latency_hist_;
  obs::Histogram* queue_wait_hist_;
  obs::Histogram* exec_hist_;
  obs::Gauge* batch_limit_gauge_;
  obs::Counter* grows_;
  obs::Counter* shrinks_;
  obs::Counter* early_sheds_;

  /// Deterministic audit sampling over the fused-batch sequence.
  AuditSampler audit_sampler_;
};

}  // namespace serve
}  // namespace errorflow

#endif  // ERRORFLOW_SERVE_BATCH_SCHEDULER_H_
