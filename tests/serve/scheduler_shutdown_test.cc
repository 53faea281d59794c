// Shutdown lifecycle: the dispatcher thread must be joined exactly once
// no matter how many threads race Shutdown(). Before the fix, two
// concurrent callers could both observe running_ and both call
// dispatcher_.join() — undefined behavior (std::terminate on the loser).
// Run under TSan in CI.
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "quant/format.h"
#include "serve/batch_scheduler.h"
#include "serve/model_registry.h"
#include "testing/serve_util.h"
#include "testing/test_util.h"

namespace errorflow {
namespace serve {
namespace {

using quant::NumericFormat;

nn::Model SmallMlp(uint64_t seed = 7) {
  nn::MlpConfig cfg;
  cfg.name = "m";
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 4;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

InferenceRequest MakeRequest(uint64_t seed) {
  InferenceRequest req;
  req.model = "mlp";
  req.input = testing::RandomTensor({2, 6}, seed);
  req.qoi_tolerance = 1e-2;
  return req;
}

TEST(SchedulerShutdownTest, ConcurrentShutdownCallsAreSafe) {
  for (int round = 0; round < 5; ++round) {
    ModelRegistry registry;
    ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
    ServerConfig cfg;
    cfg.num_workers = 2;
    BatchScheduler scheduler(&registry, cfg);
    ASSERT_TRUE(scheduler.Start().ok());

    AdmissionDecision decision;
    decision.format = NumericFormat::kFP32;
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(testing::EnqueueFuture(
          &scheduler, MakeRequest(static_cast<uint64_t>(round * 100 + i)),
          decision));
    }

    // All callers must return with the scheduler fully stopped; exactly
    // one joins the dispatcher, the rest wait for it.
    std::vector<std::thread> closers;
    for (int t = 0; t < 4; ++t) {
      closers.emplace_back([&] { EXPECT_TRUE(scheduler.Shutdown().ok()); });
    }
    for (std::thread& t : closers) t.join();
    EXPECT_FALSE(scheduler.running());

    // Shutdown drains: every admitted request was executed or shed with a
    // typed status, never abandoned.
    for (auto& f : futures) {
      const InferenceResponse response = f.get();
      EXPECT_TRUE(response.ok() || response.status.code() ==
                                       StatusCode::kDeadlineExceeded)
          << response.status.ToString();
    }
  }
}

TEST(SchedulerShutdownTest, ShutdownIsIdempotentSequentially) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  BatchScheduler scheduler(&registry, ServerConfig{});
  EXPECT_TRUE(scheduler.Shutdown().ok());  // Never started.
  ASSERT_TRUE(scheduler.Start().ok());
  EXPECT_TRUE(scheduler.Shutdown().ok());
  EXPECT_TRUE(scheduler.Shutdown().ok());  // Again after stopping.
  EXPECT_FALSE(scheduler.running());
}

TEST(SchedulerShutdownTest, RestartAfterShutdownServes) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  BatchScheduler scheduler(&registry, ServerConfig{});
  ASSERT_TRUE(scheduler.Start().ok());
  ASSERT_TRUE(scheduler.Shutdown().ok());

  ASSERT_TRUE(scheduler.Start().ok());
  AdmissionDecision decision;
  decision.format = NumericFormat::kFP32;
  auto future = testing::EnqueueFuture(&scheduler, MakeRequest(3), decision);
  const InferenceResponse response = future.get();
  EXPECT_TRUE(response.ok()) << response.status.ToString();
  ASSERT_TRUE(scheduler.Shutdown().ok());
}

TEST(SchedulerShutdownTest, EnqueueAfterShutdownIsTypedRejection) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  BatchScheduler scheduler(&registry, ServerConfig{});
  ASSERT_TRUE(scheduler.Start().ok());
  ASSERT_TRUE(scheduler.Shutdown().ok());
  bool called = false;
  const Status status = scheduler.EnqueueAsync(
      MakeRequest(4), AdmissionDecision{},
      [&called](InferenceResponse&&) { called = true; });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
