#include <string>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "obs/metrics.h"
#include "quant/format.h"
#include "serve/model_registry.h"
#include "testing/test_util.h"

namespace errorflow {
namespace serve {
namespace {

using quant::NumericFormat;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Serving invariant: spectral estimation (power iteration) is paid once at
// Register — profiling plus the PSN fold — and never again per request.
// The errorflow.spectral.power_iterations counter pins this down: it must
// stay flat across GetVariant + Predict while the serve counters advance.
TEST(NoPowerIterationTest, ServingRunsNoPowerIterationPerRequest) {
  nn::MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden_dims = {10, 10};
  cfg.output_dim = 4;
  cfg.use_psn = true;  // PSN layers are where lazy sigma refresh lurks.
  cfg.seed = 13;

  ModelRegistry registry;
  const uint64_t before_register =
      CounterValue("errorflow.spectral.power_iterations");
  ASSERT_TRUE(registry.Register("psn-mlp", nn::BuildMlp(cfg), {1, 6}).ok());
  const uint64_t after_register =
      CounterValue("errorflow.spectral.power_iterations");
  // Registration itself does spectral work (profile + fold).
  EXPECT_GT(after_register, before_register);

  const uint64_t hits_before = CounterValue("errorflow.serve.registry.hits");
  const tensor::Tensor input = testing::RandomTensor({4, 6}, 99);
  for (int i = 0; i < 20; ++i) {
    const NumericFormat format =
        (i % 2 == 0) ? NumericFormat::kFP32 : NumericFormat::kFP16;
    auto variant = registry.GetVariant("psn-mlp", format);
    ASSERT_TRUE(variant.ok());
    tensor::Tensor out = (*variant)->model.Predict(input);
    ASSERT_EQ(out.dim(0), 4);
    ASSERT_EQ(out.dim(1), 4);
  }

  // Requests were actually served through the registry...
  EXPECT_GE(CounterValue("errorflow.serve.registry.hits"),
            hits_before + 18);
  // ...and none of them ran a single power iteration.
  EXPECT_EQ(CounterValue("errorflow.spectral.power_iterations"),
            after_register);
}

// The quantization path (variant materialization) must not re-estimate
// spectra either: Materialize clones folded weights verbatim.
TEST(NoPowerIterationTest, VariantMaterializationRunsNoPowerIteration) {
  nn::MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_dims = {8};
  cfg.output_dim = 2;
  cfg.use_psn = true;
  cfg.seed = 29;

  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", nn::BuildMlp(cfg), {1, 5}).ok());
  const uint64_t after_register =
      CounterValue("errorflow.spectral.power_iterations");
  const uint64_t quantized_before =
      CounterValue("errorflow.serve.registry.quantize_count");

  for (const NumericFormat format :
       {NumericFormat::kFP32, NumericFormat::kFP16, NumericFormat::kBF16,
        NumericFormat::kINT8}) {
    ASSERT_TRUE(registry.GetVariant("m", format).ok());
  }

  EXPECT_EQ(CounterValue("errorflow.serve.registry.quantize_count"),
            quantized_before + 4);
  EXPECT_EQ(CounterValue("errorflow.spectral.power_iterations"),
            after_register);
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
