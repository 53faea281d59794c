#ifndef ERRORFLOW_SERVE_REQUEST_H_
#define ERRORFLOW_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "quant/format.h"
#include "tensor/norms.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace errorflow {
namespace serve {

using Clock = std::chrono::steady_clock;

/// \brief The one serving configuration. InferenceServer, ModelRegistry,
/// AdmissionController and BatchScheduler each read the fields they need
/// from it; InferenceServer::Start rejects out-of-range values with
/// kInvalidArgument naming the field (docs/SERVING.md, "Configuration").
struct ServerConfig {
  /// util::ThreadPool workers executing fused batches.
  int num_workers = 4;
  /// Cap on sample rows fused into one execution batch. With an SLO set
  /// this is the adaptive controller's upper limit; without one it is the
  /// fixed fuse budget.
  int64_t max_batch_rows = 64;
  /// Backpressure bound: requests arriving while this many admitted
  /// requests are still queued are shed with kResourceExhausted (halved
  /// while the scheduler reports SLO overload).
  int64_t max_queue_depth = 1024;
  /// Upper bound on the resident bytes of cached quantized variants
  /// (base models are excluded from the budget): once an insert exceeds
  /// it, the least-recently-used variants are evicted until it holds
  /// again (the variant just inserted always stays). In-flight executions
  /// keep their variant alive through the leased shared_ptr.
  int64_t max_variant_bytes = 256ll << 20;
  /// When true, every cache hit re-verifies the variant's weight checksum
  /// before leasing it; a mismatch (bit rot, stray write) drops the variant
  /// and transparently re-quantizes from the FP32 base. The checksum pass
  /// runs outside the registry lock, so concurrent leases never serialize
  /// behind it; it still costs one serialization pass per hit, so it is
  /// off by default.
  bool verify_variants = false;

  /// \name SLO-aware adaptive batching.
  ///
  /// With `slo_p99_seconds > 0`, the dispatcher resizes the fuse budget
  /// between `min_batch_rows` and `max_batch_rows` against the windowed
  /// request-latency p99 (errorflow.serve.latency_seconds): the budget
  /// doubles while the p99 sits below 0.7 x the SLO and halves when it
  /// exceeds the SLO. An over-SLO window also marks the scheduler
  /// overloaded, which sheds queued requests that cannot finish before
  /// their deadline and halves the admission queue bound. Fused execution
  /// is bit-identical to per-request execution, so the budget trades
  /// latency against throughput only.
  /// @{
  /// Target p99 request latency; 0 keeps the fixed max_batch_rows budget.
  double slo_p99_seconds = 0.0;
  /// Lower limit of the adaptive fuse budget, and its starting value.
  int64_t min_batch_rows = 1;
  /// Dispatched batches between adaptive-controller steps.
  int adapt_interval_batches = 16;
  /// @}

  /// Norm of request tolerances; the audit measures achieved error in it
  /// too, so tightness compares like with like.
  tensor::Norm norm = tensor::Norm::kLinf;
  /// Formats admission may choose; empty = all five (FP32 included, so any
  /// positive tolerance is feasible). Restricting to ReducedFormats()
  /// makes tight tolerances rejectable.
  std::vector<quant::NumericFormat> allowed_formats;
  /// Deadline applied to requests that submit without one.
  std::chrono::milliseconds default_timeout{1000};

  /// \name Error-budget audit (the bound-violation watchdog).
  ///
  /// A sampled fraction of fused quantized batches is re-executed on the
  /// FP32 base and each request's achieved error is compared to its
  /// admitted bound (errorflow.bound.*, one "serve.ledger" span per
  /// audited request). FP32 batches are the reference and never audited.
  /// @{
  /// Fraction of batches audited: 0 disables, 1 audits every batch.
  double audit_fraction = 0.0;
  /// When true, a bound violation evicts the offending variant so the
  /// next batch re-quantizes it from the FP32 base.
  bool evict_on_violation = false;
  /// @}

  /// Data-driven INT8 weight quantizer offered alongside the Table-I
  /// max-affine variants. kMaxAffine (the default) disables it: no
  /// calibration pass at Register, no extra variant keys. With kOptq/kSpfq,
  /// registering a model runs one calibration pass and prices the tighter
  /// measured INT8 bound, admission ranks it as one more candidate, and
  /// the watchdog audits the new variants like any other.
  quant::WeightQuantizer data_driven_quantizer =
      quant::WeightQuantizer::kMaxAffine;
  /// Rows of the synthesized uniform [-1, 1] calibration batch used when
  /// a model is registered without one (data-driven mode only). Served
  /// inputs are normalized to [-1, 1], so the synthetic batch approximates
  /// them; the data-driven bound is conditional on that resemblance
  /// (docs/QUANTIZATION.md).
  int64_t calibration_samples = 64;
};

/// \brief One inference request against a registered model.
///
/// `input` is a batch of one or more samples in the model's input layout
/// ((k, features) or (k, C, H, W)); the scheduler may fuse several
/// requests into one execution batch. The QoI tolerance drives admission:
/// the controller picks the fastest quantized variant whose predicted
/// error bound fits inside it, or rejects the request outright.
struct InferenceRequest {
  std::string model;
  tensor::Tensor input;
  /// Absolute QoI tolerance, same norm as the server's configured norm.
  double qoi_tolerance = 0.0;
  /// Absolute deadline; a default-constructed time_point means "apply the
  /// server's default timeout at submit time". Requests still queued past
  /// their deadline are shed with kDeadlineExceeded instead of executed.
  Clock::time_point deadline{};
};

/// \brief Outcome of an admitted request, delivered to the completion
/// callback of InferenceServer::SubmitAsync (Submit's future wraps it).
struct InferenceResponse {
  /// OK on success; kDeadlineExceeded when the request expired in the
  /// queue; other codes for execution failures.
  Status status;
  tensor::Tensor output;
  /// Variant the request executed on.
  quant::NumericFormat format = quant::NumericFormat::kFP32;
  /// Weight quantizer of that variant (kOptq/kSpfq for data-driven INT8).
  quant::WeightQuantizer quantizer = quant::WeightQuantizer::kMaxAffine;
  /// Predicted QoI bound of that variant (quantization term only; served
  /// inputs are not compressed).
  double predicted_qoi_bound = 0.0;
  /// Requests and total sample rows fused into the executed batch.
  int64_t batch_requests = 0;
  int64_t batch_rows = 0;
  /// Seconds spent queued before dispatch, and submit-to-completion total.
  double queue_seconds = 0.0;
  double total_seconds = 0.0;

  bool ok() const { return status.ok(); }
};

}  // namespace serve
}  // namespace errorflow

#endif  // ERRORFLOW_SERVE_REQUEST_H_
