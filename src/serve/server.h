#ifndef ERRORFLOW_SERVE_SERVER_H_
#define ERRORFLOW_SERVE_SERVER_H_

#include <functional>
#include <future>
#include <memory>
#include <string>

#include "serve/admission.h"
#include "serve/batch_scheduler.h"
#include "serve/model_registry.h"
#include "serve/request.h"

namespace errorflow {
namespace serve {

/// \brief Whole-server configuration; the component configs are derived
/// from it.
struct ServerConfig {
  /// Workers executing fused batches.
  int num_workers = 4;
  /// Cap on sample rows fused into one execution batch.
  int64_t max_batch_rows = 64;
  /// Admitted-but-queued bound; arrivals beyond it are shed.
  int64_t max_queue_depth = 1024;
  /// LRU budget for cached quantized variants.
  int64_t max_variant_bytes = 256ll << 20;
  /// Re-verify variant checksums on every cache hit (off the registry lock;
  /// see RegistryConfig::verify_variants).
  bool verify_variants = false;
  /// Target p99 request latency for the adaptive batcher; 0 keeps the
  /// fixed max_batch_rows fuse budget (see SchedulerConfig).
  double slo_p99_seconds = 0.0;
  /// Adaptive fuse-budget floor and starting value (SLO mode only).
  int64_t min_batch_rows = 1;
  /// Dispatched batches between adaptive-controller steps.
  int adapt_interval_batches = 16;
  /// Norm of request tolerances.
  tensor::Norm norm = tensor::Norm::kLinf;
  /// Formats admission may choose; empty = all five (FP32 included).
  std::vector<quant::NumericFormat> allowed_formats;
  /// Deadline applied to requests that submit without one.
  std::chrono::milliseconds default_timeout{1000};
  /// Fraction of fused batches re-executed on the FP32 base to measure
  /// achieved-vs-bound tightness (errorflow.bound.*). 0 disables the
  /// bound-violation watchdog; 1 audits every quantized batch.
  double audit_fraction = 0.0;
  /// When true, a bound violation evicts the offending variant so the
  /// next batch re-quantizes it from the FP32 base.
  bool evict_on_violation = false;
  /// Data-driven INT8 weight quantizer offered alongside the Table-I
  /// max-affine variants (kMaxAffine disables it; see
  /// RegistryConfig::data_driven_quantizer). With kOptq/kSpfq,
  /// RegisterModel runs one calibration pass and prices the tighter
  /// measured INT8 bound, admission ranks it as one more candidate, and
  /// the watchdog audits the new variants like any other.
  quant::WeightQuantizer data_driven_quantizer =
      quant::WeightQuantizer::kMaxAffine;
  /// Rows of the synthesized calibration batch (data-driven mode only).
  int64_t calibration_samples = 64;
};

/// \brief Concurrent inference service: tolerance-based admission, request
/// batching, and a registry of quantized model variants (Fig. 1's
/// (tolerance, format) selection, run as a server instead of one pipeline
/// at a time).
///
/// Lifecycle: RegisterModel (any time) -> Start -> Submit... -> Shutdown.
/// Shutdown drains: every admitted request completes or is shed with a
/// typed Status. All activity is observable under `errorflow.serve.*`
/// (docs/SERVING.md).
class InferenceServer {
 public:
  explicit InferenceServer(ServerConfig config = {});

  /// Shuts down if still running.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Profiles and registers a trained model under `name`. In data-driven
  /// mode the registry synthesizes a calibration batch.
  Status RegisterModel(std::string name, nn::Model model,
                       tensor::Shape single_input_shape);

  Status Start();

  /// Admits and enqueues one request. Typed-error results (kNotFound,
  /// kInvalidArgument, kDeadlineExceeded, kResourceExhausted,
  /// kFailedPrecondition) reject without queuing work; an OK result's
  /// future completes with the response.
  Result<std::future<InferenceResponse>> Submit(InferenceRequest request);

  /// Callback twin of Submit for event-loop callers (the `net` wire
  /// layer): same typed admission rejections, returned synchronously
  /// without invoking the callback. On OK, `on_complete` fires exactly
  /// once from a scheduler thread — completion, queue shed, or execution
  /// failure — and must not block.
  Status SubmitAsync(InferenceRequest request,
                     std::function<void(InferenceResponse&&)> on_complete);

  /// Drains the queue and stops workers. Idempotent.
  Status Shutdown();

  bool running() const { return scheduler_.running(); }
  int64_t queue_depth() const { return scheduler_.queue_depth(); }
  ModelRegistry& registry() { return registry_; }
  const ServerConfig& config() const { return config_; }

 private:
  /// Shared Submit/SubmitAsync front half: lookup, shape validation,
  /// default-deadline stamping (mutates `request`), and admission.
  Result<AdmissionDecision> AdmitRequest(InferenceRequest* request);

  ServerConfig config_;
  ModelRegistry registry_;
  AdmissionController admission_;
  BatchScheduler scheduler_;
};

}  // namespace serve
}  // namespace errorflow

#endif  // ERRORFLOW_SERVE_SERVER_H_
