// SLO-aware adaptive batching and the integer audit sampler.
//
// Controller contract under test: with an SLO set the fuse budget starts
// at min_batch_rows, doubles while the windowed latency p99 has headroom,
// halves (and marks the scheduler overloaded) when the window exceeds the
// SLO, and never changes per-request outputs. The audit sampler contract:
// exact floor-pattern sampling at any accumulator magnitude — the old
// floating-point formula floor((k+1)f) > floor(kf) stops firing once k*f
// passes 2^53.
#include <chrono>
#include <cmath>
#include <future>
#include <vector>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "obs/metrics.h"
#include "quant/format.h"
#include "serve/batch_scheduler.h"
#include "serve/model_registry.h"
#include "serve/server.h"
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

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Fires over N ticks from seed S: boundary crossings of the scaled
// accumulator — the ground truth the sampler must reproduce.
uint64_t ExpectedFires(uint64_t numerator, uint64_t seed, uint64_t ticks) {
  return (seed % AuditSampler::kScale + ticks * numerator) /
         AuditSampler::kScale;
}

TEST(AuditSamplerTest, EdgeFractionsAreExact) {
  AuditSampler never(0.0);
  AuditSampler always(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.Tick());
    EXPECT_TRUE(always.Tick());
  }
}

TEST(AuditSamplerTest, FractionIsExactOverAnyWindow) {
  AuditSampler sampler(0.25);
  int fires = 0;
  for (int i = 0; i < 1000; ++i) fires += sampler.Tick() ? 1 : 0;
  EXPECT_EQ(fires, 250);

  AuditSampler tenth(0.1);
  fires = 0;
  for (int i = 0; i < 10000; ++i) fires += tenth.Tick() ? 1 : 0;
  const uint64_t numerator = static_cast<uint64_t>(
      std::llround(0.1 * static_cast<double>(AuditSampler::kScale)));
  EXPECT_EQ(static_cast<uint64_t>(fires), ExpectedFires(numerator, 0, 10000));
}

// The regression the integer sampler fixes: sampling must stay exact at
// accumulator magnitudes where double arithmetic has ulp > 1 (past 2^53,
// consecutive products floor() to the same value and the old sampler
// silently stopped firing).
TEST(AuditSamplerTest, StaysExactPastDoublePrecisionLimit) {
  const uint64_t kHugeSeeds[] = {1ull << 53, 1ull << 63,
                                 ~0ull - (1ull << 34)};
  for (uint64_t seed : kHugeSeeds) {
    AuditSampler sampler(0.5, seed);
    uint64_t fires = 0;
    for (int i = 0; i < 1000; ++i) fires += sampler.Tick() ? 1 : 0;
    EXPECT_EQ(fires, ExpectedFires(AuditSampler::kScale / 2, seed, 1000))
        << "seed " << seed;
  }
  // Accumulator wrap at 2^64 is seamless: kScale divides 2^64, so the
  // pattern continues without a skipped or doubled fire.
  AuditSampler wrapping(0.5, ~0ull - 10 * (AuditSampler::kScale / 2) + 1);
  uint64_t fires = 0;
  for (int i = 0; i < 40; ++i) fires += wrapping.Tick() ? 1 : 0;
  EXPECT_EQ(fires, 20u);
}

TEST(AdaptiveBatchTest, StartsAtMinAndGrowsUnderHeadroom) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch_rows = 16;
  cfg.min_batch_rows = 2;
  cfg.slo_p99_seconds = 30.0;  // Enormous headroom: every window grows.
  cfg.adapt_interval_batches = 1;
  BatchScheduler scheduler(&registry, cfg);
  EXPECT_EQ(scheduler.batch_rows_limit(), 2);

  ASSERT_TRUE(scheduler.Start().ok());
  AdmissionDecision decision;
  decision.format = NumericFormat::kFP32;
  const uint64_t grows_before =
      CounterValue("errorflow.serve.adaptive.grows");
  // Sequential requests: every batch completes (recording latency) before
  // the next controller step, so each step sees a non-empty window.
  for (int i = 0; i < 6; ++i) {
    auto future = testing::EnqueueFuture(
        &scheduler, MakeRequest(static_cast<uint64_t>(i)), decision);
    ASSERT_TRUE(future.get().ok());
  }
  // 2 -> 4 -> 8 -> 16, capped at max_batch_rows.
  EXPECT_EQ(scheduler.batch_rows_limit(), 16);
  EXPECT_GE(CounterValue("errorflow.serve.adaptive.grows") - grows_before,
            3u);
  EXPECT_FALSE(scheduler.overloaded());
  EXPECT_EQ(obs::MetricsRegistry::Global().GaugeValue(
                "errorflow.serve.adaptive.batch_rows_limit"),
            16.0);
  ASSERT_TRUE(scheduler.Shutdown().ok());
}

TEST(AdaptiveBatchTest, ShrinksAndFlagsOverloadWhenWindowBreachesSlo) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch_rows = 8;
  cfg.min_batch_rows = 1;
  cfg.slo_p99_seconds = 10.0;
  cfg.adapt_interval_batches = 1;
  BatchScheduler scheduler(&registry, cfg);
  ASSERT_TRUE(scheduler.Start().ok());
  AdmissionDecision decision;
  decision.format = NumericFormat::kFP32;

  // Phase 1: grow to the cap under the 10 s SLO.
  for (int i = 0; i < 5; ++i) {
    auto future = testing::EnqueueFuture(
        &scheduler, MakeRequest(static_cast<uint64_t>(i)), decision);
    ASSERT_TRUE(future.get().ok());
  }
  ASSERT_EQ(scheduler.batch_rows_limit(), 8);
  ASSERT_FALSE(scheduler.overloaded());

  // Phase 2: inject an over-SLO latency observation into the histogram
  // the controller windows (deterministic stand-in for a slow batch),
  // then drive one more dispatch so the controller takes a step.
  obs::MetricsRegistry::Global()
      .GetHistogram("errorflow.serve.latency_seconds")
      ->Record(100.0);
  const uint64_t shrinks_before =
      CounterValue("errorflow.serve.adaptive.shrinks");
  auto future = testing::EnqueueFuture(&scheduler, MakeRequest(99), decision);
  ASSERT_TRUE(future.get().ok());
  // The breach window halves the budget and raises the overload flag
  // admission reads. (The breach step may run one dispatch late if the
  // injected record landed after that batch's controller step.)
  for (int i = 0; i < 3 && !scheduler.overloaded(); ++i) {
    auto retry = testing::EnqueueFuture(
        &scheduler, MakeRequest(200 + static_cast<uint64_t>(i)), decision);
    ASSERT_TRUE(retry.get().ok());
  }
  EXPECT_TRUE(scheduler.overloaded());
  EXPECT_LT(scheduler.batch_rows_limit(), 8);
  EXPECT_GE(CounterValue("errorflow.serve.adaptive.shrinks") -
                shrinks_before,
            1u);
  ASSERT_TRUE(scheduler.Shutdown().ok());
}

TEST(AdaptiveBatchTest, OverloadShedsRequestsDoomedToMissDeadline) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.slo_p99_seconds = 0.05;
  // The controller never steps during this test; the forced overload
  // state below stays in effect.
  cfg.adapt_interval_batches = 1000000;
  BatchScheduler scheduler(&registry, cfg);
  ASSERT_TRUE(scheduler.Start().ok());
  AdmissionDecision decision;
  decision.format = NumericFormat::kFP32;

  // Forced overload with a 1000 s execution EWMA: any finite deadline is
  // below the execution horizon, so dispatch sheds instead of executing.
  scheduler.SetOverloadForTest(true, /*exec_ewma_seconds=*/1000.0);
  const uint64_t sheds_before =
      CounterValue("errorflow.serve.adaptive.early_sheds");
  const uint64_t timeouts_before = CounterValue("errorflow.serve.timeouts");
  const auto queue_wait_before =
      obs::MetricsRegistry::Global()
          .HistogramSnapshotOf("errorflow.serve.queue_wait_seconds")
          .count;
  const auto latency_before =
      obs::MetricsRegistry::Global()
          .HistogramSnapshotOf("errorflow.serve.latency_seconds")
          .count;

  InferenceRequest doomed = MakeRequest(1);
  doomed.deadline = Clock::now() + std::chrono::seconds(2);
  auto future =
      testing::EnqueueFuture(&scheduler, std::move(doomed), decision);
  const InferenceResponse response = future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue("errorflow.serve.adaptive.early_sheds"),
            sheds_before + 1);
  EXPECT_EQ(CounterValue("errorflow.serve.timeouts"), timeouts_before + 1);
  // Shed requests record queue_wait_seconds (they did queue) but never
  // latency_seconds (completed requests only) — docs/OBSERVABILITY.md.
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .HistogramSnapshotOf("errorflow.serve.queue_wait_seconds")
                .count,
            queue_wait_before + 1);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .HistogramSnapshotOf("errorflow.serve.latency_seconds")
                .count,
            latency_before);

  // Deadline-less requests are never early-shed, and clearing the
  // overload restores normal service.
  scheduler.SetOverloadForTest(false, 0.0);
  auto ok_future =
      testing::EnqueueFuture(&scheduler, MakeRequest(2), decision);
  EXPECT_TRUE(ok_future.get().ok());
  ASSERT_TRUE(scheduler.Shutdown().ok());
}

TEST(AdaptiveBatchTest, QueueExpiredShedRecordsQueueWait) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  ServerConfig cfg;
  cfg.num_workers = 1;
  BatchScheduler scheduler(&registry, cfg);
  ASSERT_TRUE(scheduler.Start().ok());

  const auto queue_wait_before =
      obs::MetricsRegistry::Global()
          .HistogramSnapshotOf("errorflow.serve.queue_wait_seconds")
          .count;
  // Deadline already in the past at dispatch: the fixed-path (non-SLO)
  // shed must also record the request's queue wait — before the fix, shed
  // requests vanished from both histograms.
  InferenceRequest expired = MakeRequest(1);
  expired.deadline = Clock::now() - std::chrono::milliseconds(1);
  AdmissionDecision decision;
  decision.format = NumericFormat::kFP32;
  auto future =
      testing::EnqueueFuture(&scheduler, std::move(expired), decision);
  EXPECT_EQ(future.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .HistogramSnapshotOf("errorflow.serve.queue_wait_seconds")
                .count,
            queue_wait_before + 1);
  ASSERT_TRUE(scheduler.Shutdown().ok());
}

// Batch composition must never change outputs: the adaptive run and the
// fixed-budget run both match direct FP32 execution bit for bit.
TEST(AdaptiveBatchTest, OutputsBitIdenticalToFixedBudgetBaseline) {
  nn::Model reference = SmallMlp();
  reference.FoldPsn();

  std::vector<tensor::Tensor> inputs;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(
        testing::RandomTensor({2, 6}, 500 + static_cast<uint64_t>(i)));
  }

  for (const bool adaptive : {false, true}) {
    ServerConfig cfg;
    cfg.allowed_formats = {NumericFormat::kFP32};
    cfg.num_workers = 2;
    if (adaptive) {
      cfg.slo_p99_seconds = 5.0;
      cfg.min_batch_rows = 1;
      cfg.adapt_interval_batches = 1;
    }
    InferenceServer server(cfg);
    ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
    ASSERT_TRUE(server.Start().ok());
    std::vector<std::future<InferenceResponse>> futures;
    for (const tensor::Tensor& input : inputs) {
      InferenceRequest req;
      req.model = "mlp";
      req.input = input;
      req.qoi_tolerance = 1e-2;
      auto submitted = server.Submit(std::move(req));
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(*submitted));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      InferenceResponse response = futures[i].get();
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      tensor::Tensor want = reference.Predict(inputs[i]);
      ASSERT_EQ(response.output.shape(), want.shape());
      for (int64_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(response.output[j], want[j])
            << (adaptive ? "adaptive" : "fixed") << " request " << i
            << " elem " << j;
      }
    }
    ASSERT_TRUE(server.Shutdown().ok());
  }
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
