#include "net/net_server.h"

#include <chrono>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/net_client.h"
#include "nn/builders.h"
#include "obs/metrics.h"
#include "testing/test_util.h"

namespace errorflow {
namespace net {
namespace {

using std::chrono::milliseconds;

nn::Model SmallMlp(uint64_t seed = 7) {
  nn::MlpConfig cfg;
  cfg.name = "m";
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 4;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

SubmitFrame MakeSubmit(int64_t rows = 2, double tolerance = 1e-2,
                       uint64_t seed = 5) {
  SubmitFrame s;
  s.model = "mlp";
  s.qoi_tolerance = tolerance;
  s.deadline_ms = 2000;
  s.input = testing::RandomTensor({rows, 6}, seed);
  return s;
}

/// Running (InferenceServer, NetServer) pair on an ephemeral loopback port.
struct Harness {
  explicit Harness(serve::ServerConfig cfg = {}, NetServerConfig net_cfg = {})
      : inference(cfg), net(&inference, net_cfg) {
    EXPECT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
    EXPECT_TRUE(inference.Start().ok());
    EXPECT_TRUE(net.Start().ok());
  }
  ~Harness() {
    EXPECT_TRUE(inference.Shutdown().ok());
    EXPECT_TRUE(net.Shutdown().ok());
  }
  Result<NetClient> Client() {
    return NetClient::Connect("127.0.0.1", net.port(), milliseconds(2000));
  }

  serve::InferenceServer inference;
  NetServer net;
};

TEST(NetServerTest, PingPong) {
  Harness h;
  auto client = h.Client();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping(milliseconds(1000)).ok());
}

TEST(NetServerTest, SubmitRoundtripMatchesDirectPredict) {
  serve::ServerConfig cfg;
  cfg.allowed_formats = {quant::NumericFormat::kFP32};
  Harness h(cfg);
  auto client = h.Client();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  SubmitFrame submit = MakeSubmit(3, 1e-3, 77);
  nn::Model reference = SmallMlp();
  reference.FoldPsn();
  const tensor::Tensor want = reference.Predict(submit.input);

  auto resp = client->Roundtrip(submit, milliseconds(2000));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->format, static_cast<uint8_t>(quant::NumericFormat::kFP32));
  EXPECT_GE(resp->batch_requests, 1u);
  EXPECT_GE(resp->total_seconds, 0.0);
  ASSERT_EQ(resp->output.shape(), want.shape());
  for (int64_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(resp->output[i], want[i]) << "elem " << i;
  }
}

TEST(NetServerTest, ResponsesMatchOutOfOrderAwait) {
  Harness h;
  auto client = h.Client();
  ASSERT_TRUE(client.ok());
  auto id1 = client->Submit(MakeSubmit(1, 1e-2, 1));
  auto id2 = client->Submit(MakeSubmit(2, 1e-2, 2));
  auto id3 = client->Submit(MakeSubmit(3, 1e-2, 3));
  ASSERT_TRUE(id1.ok() && id2.ok() && id3.ok());
  // Await in reverse submission order; the client must buffer the others.
  auto r3 = client->Await(*id3, milliseconds(2000));
  auto r2 = client->Await(*id2, milliseconds(2000));
  auto r1 = client->Await(*id1, milliseconds(2000));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r1->output.dim(0), 1);
  EXPECT_EQ(r2->output.dim(0), 2);
  EXPECT_EQ(r3->output.dim(0), 3);
}

TEST(NetServerTest, UnknownModelIsTypedNotFound) {
  Harness h;
  auto client = h.Client();
  ASSERT_TRUE(client.ok());
  SubmitFrame submit = MakeSubmit();
  submit.model = "nope";
  auto resp = client->Roundtrip(submit, milliseconds(2000));
  EXPECT_EQ(resp.status().code(), StatusCode::kNotFound);
  // The rejection is request-scoped: the connection still works.
  EXPECT_TRUE(client->Ping(milliseconds(1000)).ok());
}

TEST(NetServerTest, QueueFullBackpressureIsDistinguishableOnTheWire) {
  // Queue bound 1 (the smallest valid one): a submit admitted while an
  // earlier one still waits for the dispatcher is shed. A pipelined burst
  // on one connection makes that happen; every answer is then either a
  // response or typed backpressure.
  serve::ServerConfig cfg;
  cfg.max_queue_depth = 1;
  Harness h(cfg);
  auto* backpressure = obs::MetricsRegistry::Global().GetCounter(
      "errorflow.net.backpressure_errors");
  const uint64_t before = backpressure->value();

  auto client = h.Client();
  ASSERT_TRUE(client.ok());
  constexpr int kBurst = 64;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    auto id = client->Submit(MakeSubmit());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  uint64_t shed = 0;
  for (uint64_t id : ids) {
    auto resp = client->Await(id, milliseconds(5000));
    // The wire client sees exactly what an in-process caller would: typed
    // kResourceExhausted, not a generic failure or a dropped connection.
    if (!resp.ok()) {
      EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(backpressure->value(), before + shed);
  EXPECT_TRUE(client->Ping(milliseconds(1000)).ok());
}

TEST(NetServerTest, MalformedSubmitPayloadRejectsRequestKeepsConnection) {
  Harness h;
  auto client = h.Client();
  ASSERT_TRUE(client.ok());
  // Well-framed garbage: valid header, hostile payload.
  SubmitFrame bad = MakeSubmit();
  bad.model.clear();
  auto resp = client->Roundtrip(bad, milliseconds(2000));
  EXPECT_EQ(resp.status().code(), StatusCode::kCorruption);
  // Frame boundaries were intact, so the stream survives.
  auto good = client->Roundtrip(MakeSubmit(), milliseconds(2000));
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(NetServerTest, ConnectionCapRefusesWithTypedError) {
  NetServerConfig net_cfg;
  net_cfg.max_connections = 2;
  Harness h({}, net_cfg);
  auto c1 = h.Client();
  auto c2 = h.Client();
  ASSERT_TRUE(c1.ok() && c2.ok());
  ASSERT_TRUE(c1->Ping(milliseconds(1000)).ok());
  ASSERT_TRUE(c2->Ping(milliseconds(1000)).ok());
  auto c3 = h.Client();
  ASSERT_TRUE(c3.ok());  // TCP accept succeeds; refusal is in-protocol.
  auto resp = c3->Roundtrip(MakeSubmit(), milliseconds(2000));
  EXPECT_FALSE(resp.ok());
  // Either the id-0 kResourceExhausted refusal frame arrived first, or
  // the server's close beat it; both must not hang.
  const uint64_t rejected = obs::MetricsRegistry::Global().CounterValue(
      "errorflow.net.connections.rejected");
  EXPECT_GE(rejected, 1u);
  // Established connections are unaffected.
  EXPECT_TRUE(c1->Ping(milliseconds(1000)).ok());
}

TEST(NetServerTest, DeadlineDefaultsComeFromServerConfig) {
  serve::ServerConfig cfg;
  cfg.default_timeout = milliseconds(1500);
  Harness h(cfg);
  auto client = h.Client();
  ASSERT_TRUE(client.ok());
  SubmitFrame submit = MakeSubmit();
  submit.deadline_ms = 0;  // Defer to the server's shared knob.
  auto resp = client->Roundtrip(submit, milliseconds(2000));
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
}

TEST(NetServerTest, MetricsCoverTraffic) {
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t frames_in_before =
      reg.CounterValue("errorflow.net.frames.in");
  const uint64_t accepted_before =
      reg.CounterValue("errorflow.net.connections.accepted");
  {
    Harness h;
    auto client = h.Client();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Roundtrip(MakeSubmit(), milliseconds(2000)).ok());
    ASSERT_TRUE(client->Ping(milliseconds(1000)).ok());
    EXPECT_EQ(h.net.active_connections(), 1);
  }
  EXPECT_GE(reg.CounterValue("errorflow.net.frames.in"),
            frames_in_before + 2);
  EXPECT_GE(reg.CounterValue("errorflow.net.connections.accepted"),
            accepted_before + 1);
  EXPECT_GT(reg.CounterValue("errorflow.net.bytes.in"), 0u);
  EXPECT_GT(reg.CounterValue("errorflow.net.bytes.out"), 0u);
  EXPECT_GT(
      reg.HistogramSnapshotOf("errorflow.net.request_seconds").count, 0u);
}

TEST(NetServerTest, StartIsIdempotentAndRestartWorks) {
  serve::InferenceServer inference;
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());
  NetServer net(&inference);
  ASSERT_TRUE(net.Start().ok());
  EXPECT_TRUE(net.Start().ok());  // Idempotent while running.
  EXPECT_NE(net.port(), 0);
  ASSERT_TRUE(net.Shutdown().ok());
  EXPECT_TRUE(net.Shutdown().ok());  // Idempotent after stop.
  // Start-after-Shutdown rebinds (fresh port, fresh completion hub) and
  // serves again.
  ASSERT_TRUE(net.Start().ok());
  auto client =
      NetClient::Connect("127.0.0.1", net.port(), milliseconds(2000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping(milliseconds(1000)).ok());
  ASSERT_TRUE(net.Shutdown().ok());
  ASSERT_TRUE(inference.Shutdown().ok());
}

}  // namespace
}  // namespace net
}  // namespace errorflow
