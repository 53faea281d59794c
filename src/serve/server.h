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

  /// Validates the config (kInvalidArgument naming the first bad field,
  /// nothing started) and starts the scheduler.
  Status Start();

  /// Admits and enqueues one request. Typed-error results (kNotFound,
  /// kInvalidArgument, kDeadlineExceeded, kResourceExhausted,
  /// kFailedPrecondition) reject without queuing work, returned
  /// synchronously without invoking the callback. On OK, `on_complete`
  /// fires exactly once from a scheduler thread — completion, queue shed,
  /// or execution failure — and must not block. Event-loop callers (the
  /// `net` wire layer) use this form.
  Status SubmitAsync(InferenceRequest request,
                     std::function<void(InferenceResponse&&)> on_complete);

  /// SubmitAsync with a future: the same rejections, and an OK result's
  /// future completes with the response.
  Result<std::future<InferenceResponse>> Submit(InferenceRequest request);

  /// Drains the queue and stops workers. Idempotent.
  Status Shutdown();

  bool running() const { return scheduler_.running(); }
  int64_t queue_depth() const { return scheduler_.queue_depth(); }
  ModelRegistry& registry() { return registry_; }
  const ServerConfig& config() const { return config_; }

 private:
  /// SubmitAsync's front half: lookup, shape validation, default-deadline
  /// stamping (mutates `request`), and admission.
  Result<AdmissionDecision> AdmitRequest(InferenceRequest* request);

  ServerConfig config_;
  ModelRegistry registry_;
  AdmissionController admission_;
  BatchScheduler scheduler_;
};

}  // namespace serve
}  // namespace errorflow

#endif  // ERRORFLOW_SERVE_SERVER_H_
