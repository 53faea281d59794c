// End-to-end acceptance: hundreds of concurrent NetClient connections
// through the NetServer into the real InferenceServer, every response
// satisfying its admitted tolerance against the FP32 reference; plus the
// open-loop load rig driving the same stack over real sockets.
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/load_rig.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "nn/builders.h"
#include "testing/test_util.h"

namespace errorflow {
namespace net {
namespace {

using std::chrono::milliseconds;

nn::Model SmallMlp() {
  nn::MlpConfig cfg;
  cfg.name = "m";
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 4;
  cfg.seed = 7;
  return nn::BuildMlp(cfg);
}

SubmitFrame MlpRequest(uint64_t seed) {
  SubmitFrame request;
  request.model = "mlp";
  request.qoi_tolerance = 1e-2;
  request.deadline_ms = 5000;
  request.input = testing::RandomTensor({1, 6}, seed);
  return request;
}

TEST(NetE2eTest, FiveHundredConcurrentConnectionsWithinTolerance) {
  constexpr int kClients = 500;
  constexpr double kTolerance = 1e-2;

  serve::ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_queue_depth = 2048;
  serve::InferenceServer inference(cfg);
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());

  NetServerConfig net_cfg;
  net_cfg.max_connections = 1024;
  // Connect+submit across 500 clients takes a while on one core; early
  // connections must not be idle-reaped while the tail is still dialing.
  net_cfg.idle_timeout = milliseconds(60000);
  NetServer net(&inference, net_cfg);
  ASSERT_TRUE(net.Start().ok());

  nn::Model reference = SmallMlp();
  reference.FoldPsn();

  // Phase 1: every client connects. All 500 sockets are open at once.
  std::vector<NetClient> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    auto client =
        NetClient::Connect("127.0.0.1", net.port(), milliseconds(10000));
    ASSERT_TRUE(client.ok()) << "client " << i << ": "
                             << client.status().ToString();
    clients.push_back(std::move(*client));
  }

  // Phase 2: every client submits before any awaits, so the requests are
  // genuinely concurrent in flight, not serialized round trips.
  std::vector<tensor::Tensor> inputs;
  std::vector<uint64_t> ids;
  inputs.reserve(kClients);
  ids.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    SubmitFrame submit;
    submit.model = "mlp";
    submit.qoi_tolerance = kTolerance;
    submit.deadline_ms = 60000;
    submit.input =
        testing::RandomTensor({1, 6}, 1000 + static_cast<uint64_t>(i));
    inputs.push_back(submit.input);
    auto id = clients[static_cast<size_t>(i)].Submit(submit);
    ASSERT_TRUE(id.ok()) << "client " << i << ": "
                         << id.status().ToString();
    ids.push_back(*id);
  }

  // Phase 3: collect every response and check it against the FP32
  // reference within the admitted tolerance (the paper's bound contract,
  // now holding across a real wire).
  for (int i = 0; i < kClients; ++i) {
    auto resp = clients[static_cast<size_t>(i)].Await(
        ids[static_cast<size_t>(i)], milliseconds(60000));
    ASSERT_TRUE(resp.ok()) << "client " << i << ": "
                           << resp.status().ToString();
    EXPECT_LE(resp->predicted_qoi_bound, kTolerance) << "client " << i;
    const tensor::Tensor want = reference.Predict(inputs[static_cast<size_t>(i)]);
    ASSERT_EQ(resp->output.shape(), want.shape()) << "client " << i;
    double max_err = 0.0;
    for (int64_t j = 0; j < want.size(); ++j) {
      max_err = std::max(
          max_err, std::abs(static_cast<double>(resp->output[j]) -
                            static_cast<double>(want[j])));
    }
    EXPECT_LE(max_err, kTolerance) << "client " << i;
  }
  // Every socket answered, none idle-reaped: all 500 were concurrently
  // open for the whole run.
  EXPECT_EQ(net.active_connections(), kClients);

  ASSERT_TRUE(inference.Shutdown().ok());
  ASSERT_TRUE(net.Shutdown().ok());
  EXPECT_EQ(net.in_flight_requests(), 0);
}

TEST(NetE2eTest, OpenLoopRigDrivesTheWireStack) {
  serve::InferenceServer inference;
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());
  NetServerConfig net_cfg;
  net_cfg.idle_timeout = milliseconds(10000);
  NetServer net(&inference, net_cfg);
  ASSERT_TRUE(net.Start().ok());

  LoadConfig cfg;
  cfg.port = net.port();
  cfg.connections = 16;
  cfg.phases = {{0.4, 150.0}, {0.2, 600.0}};  // Steady, then a burst.
  cfg.requests = {MlpRequest(3)};
  cfg.seed = 11;

  auto stats = RunLoad(cfg);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->submitted, 0u);
  EXPECT_GT(stats->completed, 0u);
  EXPECT_GT(stats->offered_rps, 0.0);
  EXPECT_GT(stats->achieved_rps, 0.0);
  EXPECT_EQ(stats->connect_failures, 0u);
  // Every submitted request is accounted for.
  EXPECT_EQ(stats->submitted,
            stats->completed + stats->rejected + stats->unanswered);
  EXPECT_GT(stats->latency_p99_ms, 0.0);
  EXPECT_GE(stats->latency_p99_ms, stats->latency_p50_ms);

  ASSERT_TRUE(inference.Shutdown().ok());
  ASSERT_TRUE(net.Shutdown().ok());
}

TEST(NetE2eTest, RigConfigValidation) {
  LoadConfig cfg;  // port == 0.
  EXPECT_EQ(RunLoad(cfg).status().code(), StatusCode::kInvalidArgument);
  cfg.port = 1;
  cfg.phases = {{1.0, 10.0}};  // No request templates.
  EXPECT_EQ(RunLoad(cfg).status().code(), StatusCode::kInvalidArgument);
  cfg.requests = {MlpRequest(3)};
  cfg.phases = {{-1.0, 10.0}};
  EXPECT_EQ(RunLoad(cfg).status().code(), StatusCode::kInvalidArgument);
  cfg.phases = {{1.0, 10.0}};
  cfg.connections = 0;
  EXPECT_EQ(RunLoad(cfg).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace net
}  // namespace errorflow
