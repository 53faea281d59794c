// Shape-aware batch fusion regression. The old fuse key was only
// (model, format): two requests with the same model but different per-row
// shapes — individually valid for a convolutional model, which accepts
// any H x W — were fused into one buffer sized from the FIRST request's
// row layout. The gather memcpy then read/wrote past the fused buffer for
// the larger rows (heap overflow, visible under ASan) and scattered
// garbage for the rest. The fuse key now includes the trailing dims, so
// mixed-shape requests execute as separate groups.
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/pool.h"
#include "quant/format.h"
#include "serve/batch_scheduler.h"
#include "serve/model_registry.h"
#include "testing/serve_util.h"
#include "testing/test_util.h"

namespace errorflow {
namespace serve {
namespace {

using quant::NumericFormat;

// Conv (1x1) -> GlobalAvgPool -> Dense: accepts (N, 2, H, W) for ANY
// H, W, which is what makes shape-blind fusion reachable — every request
// passes per-request validation yet rows disagree in element count.
nn::Model VariableSizeConvNet() {
  nn::Model model("convnet");
  auto conv = std::make_unique<nn::Conv2dLayer>(/*in_channels=*/2,
                                                /*out_channels=*/3,
                                                /*kernel=*/1);
  conv->InitHe(11);
  model.Add(std::move(conv));
  model.Add(std::make_unique<nn::GlobalAvgPoolLayer>());
  auto head = std::make_unique<nn::DenseLayer>(3, 2);
  head->InitXavier(12);
  model.Add(std::move(head));
  return model;
}

InferenceRequest MakeRequest(int64_t rows, int64_t hw, uint64_t seed) {
  InferenceRequest req;
  req.model = "convnet";
  req.input = testing::RandomTensor({rows, 2, hw, hw}, seed);
  req.qoi_tolerance = 1e-2;
  return req;
}

TEST(BatchFusionShapeTest, MixedShapesNeverFuseIntoOneBuffer) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("convnet", VariableSizeConvNet(),
                                {1, 2, 4, 4})
                  .ok());
  nn::Model reference = VariableSizeConvNet();
  reference.FoldPsn();

  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch_rows = 64;
  BatchScheduler scheduler(&registry, cfg);
  ASSERT_TRUE(scheduler.Start().ok());

  // Park the single worker inside the first materialization so the queue
  // accumulates a mixed-shape backlog; the dispatcher then sweeps that
  // whole backlog for fusion candidates in one pass (the pre-fix crash
  // window — any two same-model requests qualified regardless of shape).
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool hook_armed = true;
  registry.SetMaterializeFaultHookForTest(
      [&](const std::string&, NumericFormat) {
        std::unique_lock<std::mutex> lock(mu);
        if (!hook_armed) return Status::OK();
        hook_armed = false;
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
        return Status::OK();
      });

  AdmissionDecision decision;
  decision.format = NumericFormat::kFP32;
  std::vector<InferenceRequest> requests;
  std::vector<std::future<InferenceResponse>> futures;
  // Warm request occupies the worker; the rest alternate 4x4 and 6x6
  // spatial sizes (16 vs 36 elements per channel).
  futures.push_back(
      testing::EnqueueFuture(&scheduler, MakeRequest(1, 4, 50), decision));
  for (int i = 0; i < 10; ++i) {
    InferenceRequest req =
        MakeRequest(/*rows=*/1 + (i % 2), /*hw=*/(i % 2) == 0 ? 4 : 6,
                    /*seed=*/100 + static_cast<uint64_t>(i));
    requests.push_back(req);
    futures.push_back(
        testing::EnqueueFuture(&scheduler, std::move(req), decision));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  // Warm request.
  EXPECT_TRUE(futures[0].get().ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    InferenceResponse response = futures[i + 1].get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    // Bit-exact against direct FP32 execution: fused groups contained
    // only rows of this request's shape, so gather/scatter stayed
    // aligned.
    tensor::Tensor want = reference.Predict(requests[i].input);
    ASSERT_EQ(response.output.shape(), want.shape());
    for (int64_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(response.output[j], want[j])
          << "request " << i << " elem " << j;
    }
    // A fused group never mixes trailing shapes, so rows-per-batch from a
    // mixed backlog can only come from same-shape peers.
    EXPECT_GE(response.batch_rows, requests[i].input.dim(0));
  }
  ASSERT_TRUE(scheduler.Shutdown().ok());
  registry.SetMaterializeFaultHookForTest(nullptr);
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
