#include "serve/server.h"

#include <cmath>
#include <memory>
#include <utility>

#include "obs/log.h"
#include "util/string_util.h"

namespace errorflow {
namespace serve {

namespace {

// Every range InferenceServer::Start enforces; the first bad field wins.
// The comparisons are written so that a NaN fails them.
Status ValidateConfig(const ServerConfig& c) {
  struct Check {
    const char* field;
    double value;
    bool ok;
    const char* want;
  };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const Check checks[] = {
      {"num_workers", d(c.num_workers), c.num_workers >= 1, ">= 1"},
      {"max_batch_rows", d(c.max_batch_rows), c.max_batch_rows >= 1, ">= 1"},
      {"min_batch_rows", d(c.min_batch_rows),
       c.min_batch_rows >= 1 && c.min_batch_rows <= c.max_batch_rows,
       "in [1, max_batch_rows]"},
      {"adapt_interval_batches", d(c.adapt_interval_batches),
       c.adapt_interval_batches >= 1, ">= 1"},
      {"max_queue_depth", d(c.max_queue_depth), c.max_queue_depth >= 1,
       ">= 1"},
      {"default_timeout", d(c.default_timeout.count()),
       c.default_timeout.count() > 0, "> 0 ms"},
      {"slo_p99_seconds", c.slo_p99_seconds,
       std::isfinite(c.slo_p99_seconds) && c.slo_p99_seconds >= 0.0,
       "finite and >= 0"},
      {"audit_fraction", c.audit_fraction,
       c.audit_fraction >= 0.0 && c.audit_fraction <= 1.0, "in [0, 1]"},
      {"calibration_samples", d(c.calibration_samples),
       c.calibration_samples >= 1, ">= 1"},
  };
  for (const Check& check : checks) {
    if (!check.ok) {
      return Status::InvalidArgument(
          util::StrFormat("serve: ServerConfig::%s is %g; must be %s",
                          check.field, check.value, check.want));
    }
  }
  return Status::OK();
}

}  // namespace

InferenceServer::InferenceServer(ServerConfig config)
    : config_(std::move(config)),
      registry_(config_),
      admission_(config_),
      scheduler_(&registry_, config_) {}

InferenceServer::~InferenceServer() { Shutdown(); }

Status InferenceServer::RegisterModel(std::string name, nn::Model model,
                                      tensor::Shape single_input_shape) {
  obs::Logf(obs::LogLevel::kInfo, "serve: registering model %s",
            name.c_str());
  return registry_.Register(std::move(name), std::move(model),
                            std::move(single_input_shape));
}

Status InferenceServer::Start() {
  EF_RETURN_IF_ERROR(ValidateConfig(config_));
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

Status InferenceServer::SubmitAsync(
    InferenceRequest request,
    std::function<void(InferenceResponse&&)> on_complete) {
  EF_ASSIGN_OR_RETURN(AdmissionDecision decision, AdmitRequest(&request));
  return scheduler_.EnqueueAsync(std::move(request), decision,
                                 std::move(on_complete));
}

Result<std::future<InferenceResponse>> InferenceServer::Submit(
    InferenceRequest request) {
  // std::function needs a copyable callable, so the promise is shared.
  auto promise = std::make_shared<std::promise<InferenceResponse>>();
  std::future<InferenceResponse> future = promise->get_future();
  EF_RETURN_IF_ERROR(SubmitAsync(
      std::move(request), [promise](InferenceResponse&& response) {
        promise->set_value(std::move(response));
      }));
  return future;
}

Status InferenceServer::Shutdown() {
  if (!scheduler_.running()) return scheduler_.Shutdown();
  obs::Logf(obs::LogLevel::kInfo, "serve: shutting down (draining %lld)",
            static_cast<long long>(scheduler_.queue_depth()));
  return scheduler_.Shutdown();
}

}  // namespace serve
}  // namespace errorflow
