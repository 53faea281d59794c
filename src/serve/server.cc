#include "serve/server.h"

#include <utility>

#include "obs/log.h"
#include "util/string_util.h"

namespace errorflow {
namespace serve {

namespace {

RegistryConfig MakeRegistryConfig(const ServerConfig& config) {
  RegistryConfig rc;
  rc.max_variant_bytes = config.max_variant_bytes;
  rc.verify_variants = config.verify_variants;
  rc.data_driven_quantizer = config.data_driven_quantizer;
  rc.calibration_samples = config.calibration_samples;
  return rc;
}

AdmissionConfig MakeAdmissionConfig(const ServerConfig& config) {
  AdmissionConfig ac;
  ac.norm = config.norm;
  ac.allowed_formats = config.allowed_formats;
  ac.max_queue_depth = config.max_queue_depth;
  return ac;
}

SchedulerConfig MakeSchedulerConfig(const ServerConfig& config) {
  SchedulerConfig sc;
  sc.num_workers = config.num_workers;
  sc.max_batch_rows = config.max_batch_rows;
  sc.slo_p99_seconds = config.slo_p99_seconds;
  sc.min_batch_rows = config.min_batch_rows;
  sc.adapt_interval_batches = config.adapt_interval_batches;
  sc.audit_fraction = config.audit_fraction;
  // Tightness must compare achieved error to the bound in the norm the
  // bound was admitted in.
  sc.audit_norm = config.norm;
  sc.evict_on_violation = config.evict_on_violation;
  return sc;
}

}  // namespace

InferenceServer::InferenceServer(ServerConfig config)
    : config_(std::move(config)),
      registry_(MakeRegistryConfig(config_)),
      admission_(MakeAdmissionConfig(config_)),
      scheduler_(&registry_, MakeSchedulerConfig(config_)) {}

InferenceServer::~InferenceServer() { Shutdown(); }

Status InferenceServer::RegisterModel(std::string name, nn::Model model,
                                      tensor::Shape single_input_shape) {
  obs::Logf(obs::LogLevel::kInfo, "serve: registering model %s",
            name.c_str());
  return registry_.Register(std::move(name), std::move(model),
                            std::move(single_input_shape));
}

Status InferenceServer::Start() {
  EF_RETURN_IF_ERROR(scheduler_.Start());
  obs::Logf(obs::LogLevel::kInfo,
            "serve: started (%d workers, max batch %lld rows, queue %lld, "
            "slo p99 %.1fms%s)",
            config_.num_workers,
            static_cast<long long>(config_.max_batch_rows),
            static_cast<long long>(config_.max_queue_depth),
            config_.slo_p99_seconds * 1e3,
            config_.slo_p99_seconds > 0.0 ? " [adaptive]" : " [fixed]");
  return Status::OK();
}

Result<AdmissionDecision> InferenceServer::AdmitRequest(
    InferenceRequest* request) {
  if (!scheduler_.running()) {
    return Status::FailedPrecondition("serve: server not running");
  }
  EF_ASSIGN_OR_RETURN(const ModelRegistry::Entry* entry,
                      registry_.Lookup(request->model));

  // Validate the input layout against the registered shape before any
  // queuing: a malformed request must not poison a fused batch.
  const tensor::Shape& expect = entry->single_input_shape;
  const tensor::Tensor& in = request->input;
  bool shape_ok =
      in.ndim() == static_cast<int64_t>(expect.size()) && in.dim(0) >= 1;
  for (size_t i = 1; shape_ok && i < expect.size(); ++i) {
    shape_ok = in.dim(static_cast<int>(i)) == expect[i];
  }
  if (!shape_ok) {
    return Status::InvalidArgument(util::StrFormat(
        "serve: input shape %s incompatible with model shape %s",
        tensor::ShapeToString(in.shape()).c_str(),
        tensor::ShapeToString(expect).c_str()));
  }

  const Clock::time_point now = Clock::now();
  if (request->deadline == Clock::time_point{}) {
    request->deadline = now + config_.default_timeout;
  }
  return admission_.Admit(
      entry->analysis, request->qoi_tolerance, request->deadline, now,
      scheduler_.queue_depth(), scheduler_.overloaded(),
      entry->data_driven ? &*entry->data_driven : nullptr);
}

Result<std::future<InferenceResponse>> InferenceServer::Submit(
    InferenceRequest request) {
  EF_ASSIGN_OR_RETURN(AdmissionDecision decision, AdmitRequest(&request));
  return scheduler_.Enqueue(std::move(request), decision);
}

Status InferenceServer::SubmitAsync(
    InferenceRequest request,
    std::function<void(InferenceResponse&&)> on_complete) {
  auto decision = AdmitRequest(&request);
  if (!decision.ok()) return decision.status();
  return scheduler_.EnqueueAsync(std::move(request), *decision,
                                 std::move(on_complete));
}

Status InferenceServer::Shutdown() {
  if (!scheduler_.running()) return scheduler_.Shutdown();
  obs::Logf(obs::LogLevel::kInfo, "serve: shutting down (draining %lld)",
            static_cast<long long>(scheduler_.queue_depth()));
  return scheduler_.Shutdown();
}

}  // namespace serve
}  // namespace errorflow
