#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "obs/metrics.h"
#include "quant/format.h"
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

InferenceRequest MakeRequest(int64_t rows = 2, double tolerance = 1e-2,
                             uint64_t seed = 5) {
  InferenceRequest req;
  req.model = "mlp";
  req.input = testing::RandomTensor({rows, 6}, seed);
  req.qoi_tolerance = tolerance;
  return req;
}

TEST(InferenceServerTest, SubmitBeforeStartIsFailedPrecondition) {
  InferenceServer server;
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  auto result = server.Submit(MakeRequest());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InferenceServerTest, UnknownModelIsNotFound) {
  InferenceServer server;
  ASSERT_TRUE(server.Start().ok());
  auto result = server.Submit(MakeRequest());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(InferenceServerTest, MalformedInputShapeIsInvalidArgument) {
  InferenceServer server;
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  InferenceRequest bad_features = MakeRequest();
  bad_features.input = testing::RandomTensor({2, 5}, 5);
  EXPECT_EQ(server.Submit(std::move(bad_features)).status().code(),
            StatusCode::kInvalidArgument);

  InferenceRequest bad_rank = MakeRequest();
  bad_rank.input = testing::RandomTensor({6}, 5);
  EXPECT_EQ(server.Submit(std::move(bad_rank)).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(InferenceServerTest, ExpiredDeadlineRejectedAtSubmit) {
  InferenceServer server;
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());
  InferenceRequest req = MakeRequest();
  req.deadline = Clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(server.Submit(std::move(req)).status().code(),
            StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(server.Shutdown().ok());
}

// FP32-only serving makes the response bit-exact against a direct Predict
// on the base model, which pins down batch fusion and row scattering.
TEST(InferenceServerTest, Fp32ResponsesMatchDirectPredict) {
  ServerConfig cfg;
  cfg.allowed_formats = {NumericFormat::kFP32};
  cfg.num_workers = 2;
  InferenceServer server(cfg);
  nn::Model reference = SmallMlp();
  reference.FoldPsn();
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<tensor::Tensor> inputs;
  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 24; ++i) {
    const int64_t rows = 1 + (i % 3);
    InferenceRequest req =
        MakeRequest(rows, 1e-3, /*seed=*/100 + static_cast<uint64_t>(i));
    inputs.push_back(req.input);
    auto submitted = server.Submit(std::move(req));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }

  for (size_t i = 0; i < futures.size(); ++i) {
    InferenceResponse resp = futures[i].get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.format, NumericFormat::kFP32);
    EXPECT_EQ(resp.predicted_qoi_bound, 0.0);
    EXPECT_GE(resp.batch_requests, 1);
    EXPECT_GE(resp.batch_rows, resp.batch_requests);
    tensor::Tensor want = reference.Predict(inputs[i]);
    ASSERT_EQ(resp.output.shape(), want.shape());
    for (int64_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(resp.output[j], want[j]) << "request " << i << " elem " << j;
    }
  }
  ASSERT_TRUE(server.Shutdown().ok());
}

// Acceptance criterion at the server level: repeated requests at the same
// tolerance reuse one cached variant; quantize_count stays flat after the
// first materialization.
TEST(InferenceServerTest, RepeatedSameFormatRequestsQuantizeOnce) {
  InferenceServer server;
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  auto* quantize_count = obs::MetricsRegistry::Global().GetCounter(
      "errorflow.serve.registry.quantize_count");
  const double tolerance = 1e9;  // Loosest budget -> always the same format.
  auto first = server.Submit(MakeRequest(2, tolerance, 40));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->get().ok());
  const uint64_t after_first = quantize_count->value();

  for (int i = 0; i < 16; ++i) {
    auto submitted =
        server.Submit(MakeRequest(2, tolerance, 50 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(submitted.ok());
    InferenceResponse resp = submitted->get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  }
  EXPECT_EQ(quantize_count->value(), after_first);
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(InferenceServerTest, ConcurrentClientsAllComplete) {
  ServerConfig cfg;
  cfg.num_workers = 3;
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &completed, c] {
      const double tolerances[] = {1e-3, 1e-2, 1e-1};
      for (int i = 0; i < kPerClient; ++i) {
        auto submitted = server.Submit(MakeRequest(
            2, tolerances[i % 3], static_cast<uint64_t>(c * 1000 + i)));
        if (!submitted.ok()) continue;
        if (submitted->get().ok()) ++completed;
      }
    });
  }
  for (auto& t : clients) t.join();
  // The queue is far below its bound and deadlines are the 1 s default:
  // every request admits and completes.
  EXPECT_EQ(completed.load(), kClients * kPerClient);
  ASSERT_TRUE(server.Shutdown().ok());
  EXPECT_EQ(server.queue_depth(), 0);
}

TEST(InferenceServerTest, ShutdownDrainsOutstandingRequests) {
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch_rows = 4;  // Force many small batches.
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    auto submitted =
        server.Submit(MakeRequest(2, 1e-2, static_cast<uint64_t>(i)));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  ASSERT_TRUE(server.Shutdown().ok());
  // Every future resolves: executed, or shed with a typed status.
  for (auto& f : futures) {
    InferenceResponse resp = f.get();
    EXPECT_TRUE(resp.ok() ||
                resp.status.code() == StatusCode::kDeadlineExceeded)
        << resp.status.ToString();
  }
  EXPECT_FALSE(server.running());
  // Shutdown is idempotent.
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(InferenceServerTest, StrictFormatsRejectInfeasibleTolerance) {
  ServerConfig cfg;
  cfg.allowed_formats = quant::ReducedFormats();
  InferenceServer server(cfg);
  ASSERT_TRUE(server.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(server.Start().ok());
  // Far below any reduced format's bound for a real model.
  auto result = server.Submit(MakeRequest(2, 1e-300));
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(server.Shutdown().ok());
}

// Start is the one place the config is checked: every out-of-range field
// is a typed kInvalidArgument naming it, and nothing aborts or starts.
TEST(InferenceServerTest, StartRejectsEachOutOfRangeConfigField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(ServerConfig*)>>>
      cases = {
          {"num_workers", [](ServerConfig* c) { c->num_workers = 0; }},
          {"max_batch_rows", [](ServerConfig* c) { c->max_batch_rows = 0; }},
          {"min_batch_rows", [](ServerConfig* c) { c->min_batch_rows = 0; }},
          {"min_batch_rows",
           [](ServerConfig* c) {
             c->min_batch_rows = 128;
             c->max_batch_rows = 64;
           }},
          {"adapt_interval_batches",
           [](ServerConfig* c) { c->adapt_interval_batches = 0; }},
          {"max_queue_depth", [](ServerConfig* c) { c->max_queue_depth = 0; }},
          {"default_timeout",
           [](ServerConfig* c) { c->default_timeout = {}; }},
          {"default_timeout",
           [](ServerConfig* c) {
             c->default_timeout = std::chrono::milliseconds(-5);
           }},
          {"slo_p99_seconds", [](ServerConfig* c) { c->slo_p99_seconds = -1; }},
          {"slo_p99_seconds",
           [nan](ServerConfig* c) { c->slo_p99_seconds = nan; }},
          {"slo_p99_seconds",
           [inf](ServerConfig* c) { c->slo_p99_seconds = inf; }},
          {"audit_fraction",
           [](ServerConfig* c) { c->audit_fraction = -0.1; }},
          {"audit_fraction", [](ServerConfig* c) { c->audit_fraction = 1.5; }},
          {"audit_fraction",
           [nan](ServerConfig* c) { c->audit_fraction = nan; }},
          {"calibration_samples",
           [](ServerConfig* c) { c->calibration_samples = 0; }},
      };
  for (const auto& [field, mutate] : cases) {
    SCOPED_TRACE(field);
    ServerConfig cfg;
    mutate(&cfg);
    InferenceServer server(cfg);
    const Status st = server.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("ServerConfig::" + field), std::string::npos)
        << st.ToString();
    EXPECT_FALSE(server.running());
  }
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
