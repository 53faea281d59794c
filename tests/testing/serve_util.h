#ifndef ERRORFLOW_TESTS_TESTING_SERVE_UTIL_H_
#define ERRORFLOW_TESTS_TESTING_SERVE_UTIL_H_

#include <future>
#include <memory>
#include <utility>

#include "serve/batch_scheduler.h"

namespace errorflow {
namespace testing {

/// Enqueues `request` through BatchScheduler::EnqueueAsync and returns a
/// future its completion callback fulfils. The scheduler must be running:
/// a refused enqueue never calls the callback, so the future's get()
/// throws std::future_error (broken promise).
inline std::future<serve::InferenceResponse> EnqueueFuture(
    serve::BatchScheduler* scheduler, serve::InferenceRequest request,
    serve::AdmissionDecision decision) {
  auto promise = std::make_shared<std::promise<serve::InferenceResponse>>();
  std::future<serve::InferenceResponse> future = promise->get_future();
  scheduler->EnqueueAsync(std::move(request), decision,
                          [promise](serve::InferenceResponse&& response) {
                            promise->set_value(std::move(response));
                          });
  return future;
}

}  // namespace testing
}  // namespace errorflow

#endif  // ERRORFLOW_TESTS_TESTING_SERVE_UTIL_H_
