#include "serve/batch_scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/error_budget.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "tensor/norms.h"

namespace errorflow {
namespace serve {

namespace {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Fusion compatibility: every dimension but the leading (row) one must
// match, or the fused gather/scatter memcpys would misalign rows — and,
// for a larger trailing shape, write past the fused buffer.
bool SameTrailingDims(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.ndim() != b.ndim()) return false;
  for (int d = 1; d < static_cast<int>(a.ndim()); ++d) {
    if (a.dim(d) != b.dim(d)) return false;
  }
  return true;
}

}  // namespace

AuditSampler::AuditSampler(double fraction, uint64_t initial_accumulator)
    : accumulator_(initial_accumulator) {
  fraction = std::min(1.0, std::max(0.0, fraction));
  numerator_ = static_cast<uint64_t>(
      std::llround(fraction * static_cast<double>(kScale)));
}

bool AuditSampler::Tick() {
  if (numerator_ == 0) return false;
  if (numerator_ >= kScale) return true;
  const uint64_t prev =
      accumulator_.fetch_add(numerator_, std::memory_order_relaxed);
  // Fires exactly when the integer accumulator rolls over a kScale
  // boundary. prev wraps mod 2^64 and kScale divides 2^64, so the
  // pattern is exact at any sequence length.
  return (prev % kScale) + numerator_ >= kScale;
}

BatchScheduler::BatchScheduler(ModelRegistry* registry,
                               SchedulerConfig config)
    : registry_(registry),
      config_(config),
      queue_depth_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "errorflow.serve.queue_depth")),
      completed_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.completed")),
      timeouts_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.timeouts")),
      exec_failures_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.exec_failures")),
      batch_requests_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "errorflow.serve.batch_requests",
          obs::Histogram::DefaultCountBounds())),
      batch_rows_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "errorflow.serve.batch_rows",
          obs::Histogram::DefaultCountBounds())),
      latency_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "errorflow.serve.latency_seconds")),
      queue_wait_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "errorflow.serve.queue_wait_seconds")),
      exec_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "errorflow.serve.exec_seconds")),
      batch_limit_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "errorflow.serve.adaptive.batch_rows_limit")),
      grows_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.adaptive.grows")),
      shrinks_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.adaptive.shrinks")),
      early_sheds_(obs::MetricsRegistry::Global().GetCounter(
          "errorflow.serve.adaptive.early_sheds")),
      audit_sampler_(config.audit_fraction) {
  EF_CHECK(registry_ != nullptr);
  EF_CHECK(config_.max_batch_rows >= 1);
  EF_CHECK(config_.min_batch_rows >= 1 &&
           config_.min_batch_rows <= config_.max_batch_rows);
  EF_CHECK(config_.adapt_interval_batches >= 1);
  // Adaptive runs start at the floor and earn their way up while the SLO
  // has headroom; fixed runs use the full budget from the first batch.
  batch_rows_limit_.store(config_.slo_p99_seconds > 0.0
                              ? config_.min_batch_rows
                              : config_.max_batch_rows,
                          std::memory_order_relaxed);
  batch_limit_gauge_->Set(
      static_cast<double>(batch_rows_limit_.load(std::memory_order_relaxed)));
}

BatchScheduler::~BatchScheduler() { Shutdown(); }

Status BatchScheduler::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::OK();
  pool_ = std::make_unique<util::ThreadPool>(config_.num_workers);
  stopping_ = false;
  running_ = true;
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  return Status::OK();
}

void BatchScheduler::Deliver(Pending* pending, InferenceResponse&& response) {
  if (pending->on_complete) {
    pending->on_complete(std::move(response));
  } else {
    pending->promise.set_value(std::move(response));
  }
}

bool BatchScheduler::TryEnqueue(Pending* pending) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ || stopping_) return false;
    queue_.push_back(std::move(*pending));
    queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return true;
}

std::future<InferenceResponse> BatchScheduler::Enqueue(
    InferenceRequest request, AdmissionDecision decision) {
  Pending pending;
  pending.request = std::move(request);
  pending.decision = decision;
  pending.enqueue_time = Clock::now();
  std::future<InferenceResponse> future = pending.promise.get_future();
  if (!TryEnqueue(&pending)) {
    InferenceResponse response;
    response.status =
        Status::FailedPrecondition("scheduler: not accepting requests");
    pending.promise.set_value(std::move(response));
  }
  return future;
}

Status BatchScheduler::EnqueueAsync(
    InferenceRequest request, AdmissionDecision decision,
    std::function<void(InferenceResponse&&)> on_complete) {
  EF_CHECK(on_complete != nullptr);
  Pending pending;
  pending.request = std::move(request);
  pending.decision = decision;
  pending.on_complete = std::move(on_complete);
  pending.enqueue_time = Clock::now();
  if (!TryEnqueue(&pending)) {
    return Status::FailedPrecondition("scheduler: not accepting requests");
  }
  return Status::OK();
}

int64_t BatchScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

bool BatchScheduler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_ && !stopping_;
}

Status BatchScheduler::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!running_) return Status::OK();
  if (stopping_) {
    // Another thread owns the drain; joining the dispatcher twice is UB,
    // so wait for that thread to finish instead.
    shutdown_cv_.wait(lock, [this] { return !running_; });
    return Status::OK();
  }
  stopping_ = true;
  lock.unlock();

  cv_.notify_all();
  dispatcher_.join();  // Exits only once the queue is drained.
  pool_.reset();       // ThreadPool dtor drains in-flight batches.

  lock.lock();
  running_ = false;
  stopping_ = false;
  lock.unlock();
  shutdown_cv_.notify_all();
  return Status::OK();
}

void BatchScheduler::DispatchLoop() {
  for (;;) {
    std::vector<Pending> group;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue.

      const int64_t max_rows =
          batch_rows_limit_.load(std::memory_order_relaxed);
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Copied, not referenced: push_back below reallocates `group`.
      const std::string model = group[0].request.model;
      const quant::NumericFormat format = group[0].decision.format;
      const quant::WeightQuantizer quantizer = group[0].decision.quantizer;
      int64_t rows = group[0].request.input.dim(0);
      // Sweep the queue (FIFO order) for compatible requests to fuse.
      // The fuse key is (model, format, quantizer, per-row shape): rows of
      // a different trailing shape cannot share one gather/scatter layout,
      // and a max-affine INT8 row must not execute on a data-driven
      // variant (or vice versa) — each was admitted against its own bound.
      for (auto it = queue_.begin();
           it != queue_.end() && rows < max_rows;) {
        if (it->request.model == model && it->decision.format == format &&
            it->decision.quantizer == quantizer &&
            SameTrailingDims(it->request.input, group[0].request.input) &&
            rows + it->request.input.dim(0) <= max_rows) {
          rows += it->request.input.dim(0);
          group.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
    // The controller steps before the batch reaches the pool, so a step
    // sees exactly the completions that preceded this dispatch, never
    // (depending on thread timing) the batch being handed off.
    if (config_.slo_p99_seconds > 0.0 &&
        ++batches_since_adapt_ >= config_.adapt_interval_batches) {
      AdaptStep();
    }
    // std::function needs copyable callables; box the move-only group.
    auto boxed = std::make_shared<std::vector<Pending>>(std::move(group));
    pool_->Submit([this, boxed] { ExecuteGroup(std::move(*boxed)); });
  }
}

void BatchScheduler::AdaptStep() {
  batches_since_adapt_ = 0;
  obs::HistogramSnapshot now = latency_hist_->Snapshot();
  obs::HistogramSnapshot window = now.DeltaSince(adapt_baseline_);
  // No completions since the last step: keep the budget and the baseline,
  // and decide again once the window has signal.
  if (window.count == 0) return;
  adapt_baseline_ = std::move(now);

  const double p99 = window.Percentile(99.0);
  int64_t limit = batch_rows_limit_.load(std::memory_order_relaxed);
  if (p99 > config_.slo_p99_seconds) {
    const int64_t next = std::max(config_.min_batch_rows, limit / 2);
    if (next != limit) {
      shrinks_->Increment();
      obs::Logf(obs::LogLevel::kDebug,
                "scheduler: windowed p99 %.3fms over SLO %.3fms; fuse "
                "budget %lld -> %lld rows",
                p99 * 1e3, config_.slo_p99_seconds * 1e3,
                static_cast<long long>(limit),
                static_cast<long long>(next));
    }
    limit = next;
    overloaded_.store(true, std::memory_order_relaxed);
  } else {
    overloaded_.store(false, std::memory_order_relaxed);
    if (p99 < config_.slo_headroom * config_.slo_p99_seconds) {
      const int64_t next = std::min(config_.max_batch_rows, limit * 2);
      if (next != limit) grows_->Increment();
      limit = next;
    }
  }
  batch_rows_limit_.store(limit, std::memory_order_relaxed);
  batch_limit_gauge_->Set(static_cast<double>(limit));
}

void BatchScheduler::FailGroup(std::vector<Pending>* group,
                               const Status& status) {
  for (Pending& p : *group) {
    InferenceResponse response;
    response.status = status;
    Deliver(&p, std::move(response));
  }
  group->clear();
}

void BatchScheduler::ExecuteGroup(std::vector<Pending> group) {
  obs::TraceSpan span("serve.batch");
  // Shed requests whose deadline passed while they queued — and, under
  // SLO overload, those that cannot finish before their deadline anyway
  // (remaining budget below the execution-time EWMA): executing them
  // would spend worker time on a response the caller already counts as
  // dead. Shed requests record queue_wait_seconds (they did queue) but
  // not latency_seconds, which covers completed requests only
  // (docs/OBSERVABILITY.md).
  const Clock::time_point dispatch_time = Clock::now();
  const bool overloaded = overloaded_.load(std::memory_order_relaxed);
  const double exec_ewma =
      exec_ewma_seconds_.load(std::memory_order_relaxed);
  std::vector<Pending> live;
  live.reserve(group.size());
  for (Pending& p : group) {
    const bool has_deadline = p.request.deadline != Clock::time_point{};
    const bool expired = has_deadline && p.request.deadline <= dispatch_time;
    const bool doomed =
        !expired && overloaded && has_deadline &&
        SecondsBetween(dispatch_time, p.request.deadline) < exec_ewma;
    if (expired || doomed) {
      timeouts_->Increment();
      if (doomed) early_sheds_->Increment();
      InferenceResponse response;
      response.status = Status::DeadlineExceeded(
          doomed ? "scheduler: shed under SLO overload (deadline budget "
                   "below execution horizon)"
                 : "scheduler: deadline expired in queue");
      response.queue_seconds =
          SecondsBetween(p.enqueue_time, dispatch_time);
      response.total_seconds = response.queue_seconds;
      queue_wait_hist_->Record(response.queue_seconds);
      Deliver(&p, std::move(response));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  auto variant =
      registry_->GetVariant(live[0].request.model, live[0].decision.format,
                            live[0].decision.quantizer);
  if (!variant.ok()) {
    exec_failures_->Increment(static_cast<uint64_t>(live.size()));
    FailGroup(&live, variant.status());
    return;
  }

  // Gather request inputs into one fused batch.
  int64_t rows = 0;
  for (const Pending& p : live) rows += p.request.input.dim(0);
  tensor::Shape fused_shape = live[0].request.input.shape();
  fused_shape[0] = rows;
  tensor::Tensor fused(fused_shape);
  const int64_t row_elems = fused.size() / rows;
  int64_t offset = 0;
  for (const Pending& p : live) {
    const tensor::Tensor& in = p.request.input;
    std::memcpy(fused.data() + offset * row_elems, in.data(),
                static_cast<size_t>(in.size()) * sizeof(float));
    offset += in.dim(0);
  }

  tensor::Tensor output;
  {
    // Folded-model inference is thread-safe, so batches for the *same*
    // variant execute concurrently across workers (the GEMM kernels fan
    // large batches out further over the shared compute pool).
    obs::TraceSpan exec_span("serve.batch.exec");
    output = (*variant)->model.Predict(fused);
  }
  const Clock::time_point done_time = Clock::now();
  const double exec_seconds = SecondsBetween(dispatch_time, done_time);
  exec_hist_->Record(exec_seconds);
  batch_requests_hist_->Record(static_cast<double>(live.size()));
  batch_rows_hist_->Record(static_cast<double>(rows));
  // Early-shed horizon: EWMA of batch execution time. A stale-read race
  // between workers only smudges the smoothing, never correctness.
  const double prev_ewma =
      exec_ewma_seconds_.load(std::memory_order_relaxed);
  exec_ewma_seconds_.store(
      prev_ewma == 0.0 ? exec_seconds
                       : 0.8 * prev_ewma + 0.2 * exec_seconds,
      std::memory_order_relaxed);

  // Scatter output rows back to the per-request promises.
  const int64_t out_row_elems = output.size() / rows;
  tensor::Shape out_shape = output.shape();
  offset = 0;
  for (Pending& p : live) {
    const int64_t k = p.request.input.dim(0);
    out_shape[0] = k;
    tensor::Tensor slice(out_shape);
    std::memcpy(slice.data(), output.data() + offset * out_row_elems,
                static_cast<size_t>(k * out_row_elems) * sizeof(float));
    offset += k;

    InferenceResponse response;
    response.status = Status::OK();
    response.output = std::move(slice);
    response.format = p.decision.format;
    response.quantizer = p.decision.quantizer;
    response.predicted_qoi_bound = p.decision.quant_bound;
    response.batch_requests = static_cast<int64_t>(live.size());
    response.batch_rows = rows;
    response.queue_seconds = SecondsBetween(p.enqueue_time, dispatch_time);
    response.total_seconds = SecondsBetween(p.enqueue_time, done_time);
    queue_wait_hist_->Record(response.queue_seconds);
    latency_hist_->Record(response.total_seconds);
    completed_->Increment();
    Deliver(&p, std::move(response));
  }

  // Bound-violation watchdog: responses are already delivered, so the
  // FP32 reference re-execution never sits on the request latency path.
  // FP32 batches are the reference and are never audited.
  if (live[0].decision.format != quant::NumericFormat::kFP32 &&
      audit_sampler_.Tick()) {
    AuditGroup(live, fused, output, rows);
  }
}

void BatchScheduler::AuditGroup(const std::vector<Pending>& live,
                                const tensor::Tensor& fused,
                                const tensor::Tensor& output, int64_t rows) {
  // The FP32 reference goes through the normal variant lease (a cached
  // clone of the base), so audits share the execution path they police.
  auto reference_variant =
      registry_->GetVariant(live[0].request.model, quant::NumericFormat::kFP32);
  if (!reference_variant.ok()) return;

  obs::TraceSpan audit_span("serve.audit");
  tensor::Tensor reference = (*reference_variant)->model.Predict(fused);
  const int64_t out_row_elems = output.size() / rows;

  bool violated = false;
  int64_t offset = 0;
  for (const Pending& p : live) {
    const int64_t k = p.request.input.dim(0);
    obs::ErrorBudgetLedger ledger;
    ledger.model = p.request.model;
    ledger.format = quant::FormatToString(p.decision.format);
    if (p.decision.quantizer != quant::WeightQuantizer::kMaxAffine) {
      // Distinguish data-driven INT8 ledgers from max-affine INT8 ones:
      // their admitted bounds come from different step derivations.
      ledger.format +=
          std::string("+") + quant::QuantizerToString(p.decision.quantizer);
    }
    // Served inputs are not compressed: the admitted bound is all
    // quantization term, with no compression-input share.
    ledger.admitted_bound = p.decision.quant_bound;
    ledger.quant_term = p.decision.quant_bound;
    ledger.achieved_error = tensor::MaxRowError(
        reference.data() + offset * out_row_elems,
        output.data() + offset * out_row_elems, k, out_row_elems,
        config_.audit_norm);
    ledger.audited = true;
    offset += k;

    obs::TraceSpan ledger_span("serve.ledger");
    obs::RecordErrorBudget(ledger, &ledger_span);
    violated = violated || ledger.violation();
  }

  if (violated && config_.evict_on_violation) {
    // Recovery lever: drop the suspect variant so the next batch
    // re-quantizes it from the FP32 base (PR 5 machinery).
    registry_->InvalidateVariant(live[0].request.model,
                                 live[0].decision.format,
                                 live[0].decision.quantizer);
  }
}

}  // namespace serve
}  // namespace errorflow
