// The open-loop rig over its in-process transport (straight into
// InferenceServer::SubmitAsync), the schedule both transports share, and
// the socket transport's reassembly and flush under short transfers.
#include "net/load_rig.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "net/net_server.h"
#include "nn/builders.h"
#include "testing/test_util.h"

namespace errorflow {
namespace net {
namespace {

nn::Model SmallMlp() {
  nn::MlpConfig cfg;
  cfg.name = "m";
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 4;
  cfg.seed = 7;
  return nn::BuildMlp(cfg);
}

SubmitFrame MlpRequest(uint64_t seed, double tolerance = 1e-2) {
  SubmitFrame request;
  request.model = "mlp";
  request.qoi_tolerance = tolerance;
  request.deadline_ms = 5000;
  request.input = testing::RandomTensor({1, 6}, seed);
  return request;
}

TEST(LoadRigTest, InProcessTransportAccountsForEveryRequest) {
  serve::InferenceServer inference;
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());

  LoadConfig cfg;
  cfg.server = &inference;  // No port, no connections: in-process.
  cfg.phases = {{0.4, 150.0}, {0.2, 600.0}};
  cfg.requests = {MlpRequest(3, 1e-3), MlpRequest(4, 1e-1)};
  cfg.seed = 11;
  auto stats = RunLoad(cfg);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->offered_rps, 0.0);
  EXPECT_GT(stats->submitted, 0u);
  EXPECT_GT(stats->completed, 0u);
  EXPECT_EQ(stats->submitted,
            stats->completed + stats->rejected + stats->unanswered);
  EXPECT_EQ(stats->connect_failures, 0u);
  EXPECT_GE(stats->latency_p99_ms, stats->latency_p50_ms);
  EXPECT_GE(stats->lateness_p99_ms, stats->lateness_p50_ms);
  EXPECT_GE(stats->lateness_p50_ms, 0.0);
  EXPECT_GT(stats->busy_share, 0.0);
  EXPECT_LE(stats->busy_share, 1.0);

  cfg.requests.clear();
  EXPECT_EQ(RunLoad(cfg).status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(inference.Shutdown().ok());
}

// Queue cap 1 with the single worker parked inside its first variant
// materialization: every arrival while it is parked finds the queue full,
// so admission must answer with typed backpressure, synchronously, and
// nothing may be left unanswered once the worker resumes.
TEST(LoadRigTest, InProcessQueueCapOneBackpressuresTyped) {
  // Declared before the server so the hook's state outlives its workers.
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  serve::ServerConfig server_cfg;
  server_cfg.num_workers = 1;
  server_cfg.max_queue_depth = 1;
  serve::InferenceServer inference(server_cfg);
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  inference.registry().SetMaterializeFaultHookForTest(
      [&](const std::string&, quant::NumericFormat) {
        std::unique_lock<std::mutex> lock(mu);
        if (!parked) {
          parked = true;
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
        }
        return Status::OK();
      });
  ASSERT_TRUE(inference.Start().ok());
  // Holds the worker for 150 ms (~150 arrivals) once it has parked.
  std::thread releaser([&] {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return parked; });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  });

  LoadConfig cfg;
  cfg.server = &inference;
  cfg.phases = {{0.4, 1000.0}};
  cfg.requests = {MlpRequest(5, 1e9)};  // Loosest budget: a reduced variant.
  auto stats = RunLoad(cfg);
  releaser.join();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->backpressure, 0u);
  EXPECT_EQ(stats->unanswered, 0u);
  EXPECT_GT(stats->completed, 0u);
  EXPECT_EQ(stats->submitted, stats->completed + stats->rejected);
  ASSERT_TRUE(inference.Shutdown().ok());
  inference.registry().SetMaterializeFaultHookForTest(nullptr);
}

TEST(LoadRigTest, TransportsShareTheArrivalSchedule) {
  serve::InferenceServer inference;
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());
  NetServerConfig net_cfg;
  net_cfg.idle_timeout = std::chrono::milliseconds(10000);
  NetServer net(&inference, net_cfg);
  ASSERT_TRUE(net.Start().ok());

  LoadConfig cfg;
  cfg.phases = {{0.2, 300.0}, {0.1, 900.0}};
  cfg.requests = {MlpRequest(6)};
  cfg.seed = 23;
  cfg.port = net.port();
  cfg.connections = 4;
  auto socket = RunLoad(cfg);
  cfg.server = &inference;
  auto in_process = RunLoad(cfg);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  EXPECT_GT(socket->submitted, 0u);
  EXPECT_EQ(socket->submitted, in_process->submitted);
  EXPECT_EQ(socket->offered_rps, in_process->offered_rps);
  EXPECT_EQ(socket->overload_dropped + in_process->overload_dropped, 0u);

  ASSERT_TRUE(inference.Shutdown().ok());
  ASSERT_TRUE(net.Shutdown().ok());
}

// The rig's own reassembly and flush over real sockets, with every
// transfer on both sides of the wire capped at 3 bytes: each frame arrives
// and leaves in many pieces, and every request must still be answered.
TEST(LoadRigTest, SocketTransportSurvivesShortTransfers) {
  serve::InferenceServer inference;
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());
  NetServerConfig net_cfg;
  net_cfg.idle_timeout = std::chrono::milliseconds(10000);
  NetServer net(&inference, net_cfg);
  ASSERT_TRUE(net.Start().ok());

  LoadConfig cfg;
  cfg.phases = {{0.3, 400.0}};
  cfg.requests = {MlpRequest(8)};
  cfg.seed = 31;
  cfg.port = net.port();
  cfg.connections = 3;
  SetSocketFaultHookForTest([](int, bool, size_t) {
    SocketFault fault;
    fault.max_bytes = 3;
    return fault;
  });
  auto stats = RunLoad(cfg);
  SetSocketFaultHookForTest(nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->submitted, 0u);
  EXPECT_EQ(stats->completed, stats->submitted);
  EXPECT_EQ(stats->connection_errors, 0u);
  EXPECT_EQ(stats->unanswered, 0u);

  ASSERT_TRUE(inference.Shutdown().ok());
  ASSERT_TRUE(net.Shutdown().ok());
}

}  // namespace
}  // namespace net
}  // namespace errorflow
