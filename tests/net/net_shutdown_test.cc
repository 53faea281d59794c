// Shutdown semantics: a graceful drain answers every in-flight wire
// request — completed, or shed with a typed Error frame — and abandons no
// promise. Conservation is asserted both from the client's view (every
// Await resolves) and from the serve/net counters.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "nn/builders.h"
#include "obs/metrics.h"
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

SubmitFrame MakeSubmit(uint64_t seed, uint32_t deadline_ms = 5000) {
  SubmitFrame s;
  s.model = "mlp";
  s.qoi_tolerance = 1e-2;
  s.deadline_ms = deadline_ms;
  s.input = testing::RandomTensor({2, 6}, seed);
  return s;
}

/// Blocks until the server has parsed `target` total frames.in, so a
/// subsequent Shutdown() races nothing: every pipelined Submit has been
/// dispatched (a client Submit() only proves bytes left its send buffer).
void WaitForFramesIn(uint64_t target) {
  auto* frames_in =
      obs::MetricsRegistry::Global().GetCounter("errorflow.net.frames.in");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (frames_in->value() < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  ASSERT_GE(frames_in->value(), target);
}

// Inference server drains first (documented loss-free order), then the
// net layer flushes: every one of the pipelined requests must come back
// as a Response or a typed Error — none may simply vanish.
TEST(NetShutdownTest, DrainAnswersEveryInFlightRequest) {
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t completed_before =
      reg.CounterValue("errorflow.serve.completed");
  const uint64_t timeout_before =
      reg.CounterValue("errorflow.serve.timeouts");
  const uint64_t frames_in_before =
      reg.CounterValue("errorflow.net.frames.in");

  serve::ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch_rows = 4;  // Many small batches: a real drain backlog.
  serve::InferenceServer inference(cfg);
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());
  NetServer net(&inference);
  ASSERT_TRUE(net.Start().ok());

  auto client =
      NetClient::Connect("127.0.0.1", net.port(), milliseconds(2000));
  ASSERT_TRUE(client.ok());
  constexpr int kRequests = 24;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    auto id = client->Submit(MakeSubmit(static_cast<uint64_t>(i)));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  WaitForFramesIn(frames_in_before + kRequests);
  // Scheduler drain fulfills every request; the net loop then flushes the
  // already-encoded frames before closing.
  ASSERT_TRUE(inference.Shutdown().ok());
  ASSERT_TRUE(net.Shutdown().ok());
  EXPECT_EQ(net.in_flight_requests(), 0);

  int answered = 0;
  for (uint64_t id : ids) {
    auto resp = client->Await(id, milliseconds(2000));
    if (resp.ok()) {
      ++answered;
    } else {
      // A shed must be the typed deadline code, not a generic failure.
      ASSERT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded)
          << resp.status().ToString();
      ++answered;
    }
  }
  EXPECT_EQ(answered, kRequests);

  // Counter conservation: everything submitted was completed or shed.
  const uint64_t completed =
      reg.CounterValue("errorflow.serve.completed") -
      completed_before;
  const uint64_t shed =
      reg.CounterValue("errorflow.serve.timeouts") - timeout_before;
  EXPECT_GE(completed + shed, static_cast<uint64_t>(kRequests));
}

// Requests that expire while queued come back over the wire as typed
// kDeadlineExceeded error frames (distinguishable from backpressure).
TEST(NetShutdownTest, QueuedRequestsShedWithTypedDeadlineFrame) {
  const uint64_t frames_in_before = obs::MetricsRegistry::Global()
                                        .CounterValue("errorflow.net.frames.in");
  // State of the hook below; declared first so it outlives the workers.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool hook_armed = true;
  serve::ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch_rows = 32;
  serve::InferenceServer inference(cfg);
  // A model with real per-batch cost, so a pile of short-deadline
  // requests on one worker cannot all finish in time: the queue tail
  // must shed — each with a typed frame.
  nn::MlpConfig big;
  big.name = "big";
  big.input_dim = 64;
  big.hidden_dims = {256, 256};
  big.output_dim = 8;
  big.seed = 3;
  ASSERT_TRUE(
      inference.RegisterModel("big", nn::BuildMlp(big), {1, 64}).ok());
  // Park the single worker inside its first variant materialization until
  // every request is queued and past its deadline, so the queue tail must
  // expire however fast the host runs the model.
  inference.registry().SetMaterializeFaultHookForTest(
      [&](const std::string&, quant::NumericFormat) {
        std::unique_lock<std::mutex> lock(mu);
        if (!hook_armed) return Status::OK();
        hook_armed = false;
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
        return Status::OK();
      });
  ASSERT_TRUE(inference.Start().ok());
  NetServer net(&inference);
  ASSERT_TRUE(net.Start().ok());
  auto client =
      NetClient::Connect("127.0.0.1", net.port(), milliseconds(2000));
  ASSERT_TRUE(client.ok());

  constexpr int kRequests = 64;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    SubmitFrame s;
    s.model = "big";
    s.qoi_tolerance = 1e9;  // Loosest budget: admission never rejects.
    s.deadline_ms = 5;
    s.input =
        testing::RandomTensor({32, 64}, 100 + static_cast<uint64_t>(i));
    auto id = client->Submit(s);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  WaitForFramesIn(frames_in_before + kRequests);
  std::this_thread::sleep_for(milliseconds(20));  // Past every deadline.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  int ok_count = 0;
  int shed_count = 0;
  for (uint64_t id : ids) {
    auto resp = client->Await(id, milliseconds(5000));
    if (resp.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded)
          << resp.status().ToString();
      ++shed_count;
    }
  }
  EXPECT_EQ(ok_count + shed_count, kRequests);
  EXPECT_GE(shed_count, 1) << "short deadlines on a saturated worker "
                              "should shed at least the queue tail";
  ASSERT_TRUE(inference.Shutdown().ok());
  ASSERT_TRUE(net.Shutdown().ok());
  inference.registry().SetMaterializeFaultHookForTest(nullptr);
}

// NetServer::Shutdown alone (inference still up): the drain window waits
// for in-flight requests and flushes their frames before closing, so the
// client can still read every response off its socket afterwards.
TEST(NetShutdownTest, NetDrainFlushesResponsesBeforeClosing) {
  const uint64_t frames_in_before = obs::MetricsRegistry::Global()
                                        .CounterValue("errorflow.net.frames.in");
  serve::InferenceServer inference;
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());
  NetServer net(&inference);
  ASSERT_TRUE(net.Start().ok());
  auto client =
      NetClient::Connect("127.0.0.1", net.port(), milliseconds(2000));
  ASSERT_TRUE(client.ok());

  constexpr int kRequests = 8;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    auto id = client->Submit(MakeSubmit(static_cast<uint64_t>(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  WaitForFramesIn(frames_in_before + kRequests);
  ASSERT_TRUE(net.Shutdown().ok());
  EXPECT_EQ(net.in_flight_requests(), 0);
  for (uint64_t id : ids) {
    auto resp = client->Await(id, milliseconds(2000));
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  }
  ASSERT_TRUE(inference.Shutdown().ok());
}

// During the drain window, new Submit frames are refused with a typed
// kFailedPrecondition, and new connections get the id-0 refusal.
TEST(NetShutdownTest, SubmitsDuringDrainRefusedTyped) {
  serve::InferenceServer inference;
  ASSERT_TRUE(inference.RegisterModel("mlp", SmallMlp(), {1, 6}).ok());
  ASSERT_TRUE(inference.Start().ok());
  NetServer net(&inference);
  ASSERT_TRUE(net.Start().ok());
  auto client =
      NetClient::Connect("127.0.0.1", net.port(), milliseconds(2000));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping(milliseconds(1000)).ok());
  ASSERT_TRUE(net.Shutdown().ok());
  // The socket is closed once drained; a fresh connect must fail (the
  // listener is gone), keeping "draining" observable to clients.
  auto late = NetClient::Connect("127.0.0.1", net.port(), milliseconds(500));
  EXPECT_FALSE(late.ok());
  ASSERT_TRUE(inference.Shutdown().ok());
}

}  // namespace
}  // namespace net
}  // namespace errorflow
