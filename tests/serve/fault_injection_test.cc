// Fault-injected serving: a corrupt cached variant or a failed
// materialization must surface as a typed Status plus the
// errorflow.serve.decode_failures counter — and, for corrupt variants,
// transparent recovery by re-quantizing from the FP32 base. A crashed
// worker is never an acceptable outcome.
#include <string>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/dense.h"
#include "obs/metrics.h"
#include "quant/format.h"
#include "serve/model_registry.h"

namespace errorflow {
namespace serve {
namespace {

using quant::NumericFormat;

nn::Model SmallMlp(const std::string& name = "m", uint64_t seed = 7) {
  nn::MlpConfig cfg;
  cfg.name = name;
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 4;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Flips one weight of the first dense layer — the in-memory equivalent of
// bit rot in a cached variant.
void CorruptFirstDenseWeight(nn::Model* model) {
  for (auto& layer : model->mutable_layers()) {
    if (layer->kind() == nn::LayerKind::kDense) {
      auto* dense = static_cast<nn::DenseLayer*>(layer.get());
      dense->mutable_weight()[0] = dense->mutable_weight()[0] + 1e6f;
      return;
    }
  }
  FAIL() << "model has no dense layer to corrupt";
}

TEST(ServeFaultInjectionTest, CorruptVariantRecoveredByRequantize) {
  ServerConfig config;
  config.verify_variants = true;
  ModelRegistry registry(config);
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());

  auto first = registry.GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(first.ok());
  const uint64_t failures_before =
      CounterValue("errorflow.serve.decode_failures");
  const uint64_t quantizes_before =
      CounterValue("errorflow.serve.registry.quantize_count");

  // An intact variant re-verifies cleanly: hit, no failure, no quantize.
  ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kFP16).ok());
  EXPECT_EQ(CounterValue("errorflow.serve.decode_failures"), failures_before);
  EXPECT_EQ(CounterValue("errorflow.serve.registry.quantize_count"),
            quantizes_before);

  // Corrupt the cached weights through the lease, then request again: the
  // checksum mismatch must be counted and healed from the base — the
  // caller still gets a (fresh, verified) variant, not an error.
  CorruptFirstDenseWeight(&(*first)->model);
  auto recovered = registry.GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(CounterValue("errorflow.serve.decode_failures"),
            failures_before + 1);
  EXPECT_EQ(CounterValue("errorflow.serve.registry.quantize_count"),
            quantizes_before + 1);
  EXPECT_NE(recovered->get(), first->get());
  EXPECT_EQ(ModelRegistry::ChecksumModel((*recovered)->model),
            (*recovered)->checksum);
}

TEST(ServeFaultInjectionTest, MaterializeFaultReturnsTypedStatus) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  registry.SetMaterializeFaultHookForTest(
      [](const std::string&, NumericFormat) {
        return Status::Corruption("injected quantize fault");
      });
  const uint64_t before = CounterValue("errorflow.serve.decode_failures");
  auto variant = registry.GetVariant("mlp", NumericFormat::kINT8);
  ASSERT_FALSE(variant.ok());
  EXPECT_EQ(variant.status().code(), StatusCode::kCorruption);
  EXPECT_NE(variant.status().message().find("failed to materialize"),
            std::string::npos);
  EXPECT_EQ(CounterValue("errorflow.serve.decode_failures"), before + 1);
  EXPECT_EQ(registry.variant_count(), 0);

  // Clearing the fault restores service without re-registering anything.
  registry.SetMaterializeFaultHookForTest(nullptr);
  EXPECT_TRUE(registry.GetVariant("mlp", NumericFormat::kINT8).ok());
  EXPECT_EQ(registry.variant_count(), 1);
}

TEST(ServeFaultInjectionTest, VerifyDisabledSkipsChecksum) {
  // The default config trades integrity re-checks for lease latency: a
  // corrupted cached variant is served as-is and nothing is counted.
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  auto first = registry.GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(first.ok());
  CorruptFirstDenseWeight(&(*first)->model);
  const uint64_t before = CounterValue("errorflow.serve.decode_failures");
  auto again = registry.GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), first->get());
  EXPECT_EQ(CounterValue("errorflow.serve.decode_failures"), before);
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
