#include "serve/model_registry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

nn::Model SmallMlp(const std::string& name = "m", uint64_t seed = 7) {
  nn::MlpConfig cfg;
  cfg.name = name;
  cfg.input_dim = 6;
  cfg.hidden_dims = {8};
  cfg.output_dim = 4;
  cfg.seed = seed;
  return nn::BuildMlp(cfg);
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(ModelRegistryTest, RegisterAndLookup) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  auto entry = registry.Lookup("mlp");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->single_input_shape, tensor::Shape({1, 6}));
  EXPECT_GT((*entry)->flops_per_sample, 0);
  EXPECT_GT((*entry)->bytes_per_sample, 0);
  // The analysis is usable for admission: FP32 has a zero quant bound.
  EXPECT_EQ((*entry)->analysis.Bound(0.0, tensor::Norm::kLinf,
                                     NumericFormat::kFP32),
            0.0);
}

TEST(ModelRegistryTest, DuplicateRegisterIsAlreadyExists) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  Status dup = registry.Register("mlp", SmallMlp(), {1, 6});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(ModelRegistryTest, InvalidNamesRejected) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Register("", SmallMlp(), {1, 6}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("a\nb", SmallMlp(), {1, 6}).code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelRegistryTest, LookupUnknownIsNotFound) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Lookup("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.GetVariant("nope", NumericFormat::kFP16).status().code(),
            StatusCode::kNotFound);
}

// Acceptance criterion: a cache hit skips re-quantization — the
// errorflow.serve.registry.quantize_count counter stays flat across
// repeated same-format requests.
TEST(ModelRegistryTest, CacheHitSkipsRequantization) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());

  const uint64_t quantized_before =
      CounterValue("errorflow.serve.registry.quantize_count");
  ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kFP16).ok());
  const uint64_t after_first =
      CounterValue("errorflow.serve.registry.quantize_count");
  EXPECT_EQ(after_first, quantized_before + 1);

  const uint64_t hits_before =
      CounterValue("errorflow.serve.registry.hits");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kFP16).ok());
  }
  EXPECT_EQ(CounterValue("errorflow.serve.registry.quantize_count"),
            after_first);
  EXPECT_EQ(CounterValue("errorflow.serve.registry.hits"), hits_before + 10);
  EXPECT_EQ(registry.variant_count(), 1);
}

TEST(ModelRegistryTest, Fp32VariantMatchesBaseModel) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  auto entry = registry.Lookup("mlp");
  ASSERT_TRUE(entry.ok());
  auto variant = registry.GetVariant("mlp", NumericFormat::kFP32);
  ASSERT_TRUE(variant.ok());

  tensor::Tensor input = testing::RandomTensor({3, 6}, 11);
  tensor::Tensor want =
      const_cast<nn::Model&>((*entry)->base).Predict(input);
  tensor::Tensor got = (*variant)->model.Predict(input);
  ASSERT_EQ(got.size(), want.size());
  for (int64_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(ModelRegistryTest, LruEvictsLeastRecentlyUsedVariant) {
  ServerConfig cfg;
  // The small MLP has 6*8+8 + 8*4+4 = 92 parameters -> 368 resident bytes
  // per variant; a 400-byte budget holds exactly one.
  cfg.max_variant_bytes = 400;
  ModelRegistry registry(cfg);
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());

  const uint64_t evictions_before =
      CounterValue("errorflow.serve.registry.evictions");
  auto fp16 = registry.GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(fp16.ok());
  ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kBF16).ok());

  // The FP16 variant was evicted to make room.
  EXPECT_EQ(registry.variant_count(), 1);
  EXPECT_LE(registry.variant_bytes(), cfg.max_variant_bytes);
  EXPECT_EQ(CounterValue("errorflow.serve.registry.evictions"),
            evictions_before + 1);

  // Re-requesting FP16 re-materializes it (a miss, not a hit).
  const uint64_t quantized_before =
      CounterValue("errorflow.serve.registry.quantize_count");
  ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kFP16).ok());
  EXPECT_EQ(CounterValue("errorflow.serve.registry.quantize_count"),
            quantized_before + 1);

  // The lease taken before eviction stays valid: in-flight executions are
  // never invalidated by the LRU.
  tensor::Tensor input = testing::RandomTensor({2, 6}, 3);
  tensor::Tensor out = (*fp16)->model.Predict(input);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 4);
}

TEST(ModelRegistryTest, VariantBytesTracksResidentVariants) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  EXPECT_EQ(registry.variant_bytes(), 0);
  ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kFP16).ok());
  ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kINT8).ok());
  EXPECT_EQ(registry.variant_count(), 2);
  EXPECT_EQ(registry.variant_bytes(), 2 * 92 * 4);
}

// The byte budget bounds the whole cache: resident bytes never exceed
// max_variant_bytes, and eviction picks the registry-wide least-recently
// used variant, so a variant kept hot survives every colder insert.
TEST(ModelRegistryTest, LruBudgetIsRegistryWide) {
  ServerConfig cfg;
  // 368 resident bytes per variant: two fit in 1000 bytes, three do not.
  cfg.max_variant_bytes = 1000;
  ModelRegistry registry(cfg);
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());

  for (NumericFormat f : quant::AllFormats()) {
    ASSERT_TRUE(registry.GetVariant("mlp", f).ok());
    EXPECT_LE(registry.variant_bytes(), cfg.max_variant_bytes)
        << "after leasing " << quant::FormatToString(f);
    // FP32 is leased after every other format, so it is never the least
    // recently used variant: re-leasing it is a hit, not a re-quantize.
    const uint64_t quantized_before =
        CounterValue("errorflow.serve.registry.quantize_count");
    ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kFP32).ok());
    EXPECT_EQ(CounterValue("errorflow.serve.registry.quantize_count"),
              quantized_before)
        << "fp32 evicted by " << quant::FormatToString(f);
  }
  EXPECT_EQ(registry.variant_count(), 2);
}

TEST(ModelRegistryTest, EveryFormatIsOneCachedVariant) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  for (NumericFormat f : quant::AllFormats()) {
    ASSERT_TRUE(registry.GetVariant("mlp", f).ok());
  }
  EXPECT_EQ(registry.variant_count(), 5);
  EXPECT_EQ(registry.variant_bytes(), 5 * 92 * 4);
}

TEST(ModelRegistryTest, HitAndMissCountersTrackLeases) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());

  // Global metrics are process-wide and cumulative across tests: measure
  // deltas around this registry's traffic.
  const uint64_t hits_before = CounterValue("errorflow.serve.registry.hits");
  const uint64_t misses_before =
      CounterValue("errorflow.serve.registry.misses");
  for (NumericFormat f : quant::AllFormats()) {
    ASSERT_TRUE(registry.GetVariant("mlp", f).ok());  // 5 misses.
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        registry.GetVariant("mlp", NumericFormat::kFP16).ok());  // 3 hits.
  }
  EXPECT_EQ(CounterValue("errorflow.serve.registry.hits") - hits_before, 3u);
  EXPECT_EQ(CounterValue("errorflow.serve.registry.misses") - misses_before,
            5u);
}

// Checksum verification runs *outside* the registry lock. A verify pass
// blocked mid-checksum must not stall another lease — with an in-lock
// design this test deadlocks (and fails via the 5 s timeout rather than
// hanging).
TEST(ModelRegistryTest, VerifyRunsOutsideTheRegistryLock) {
  ServerConfig cfg;
  cfg.verify_variants = true;
  ModelRegistry registry(cfg);
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());
  // Materialize both variants up front (misses do not verify).
  ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kFP16).ok());
  ASSERT_TRUE(registry.GetVariant("mlp", NumericFormat::kBF16).ok());

  std::mutex mu;
  std::condition_variable cv;
  bool verifier_entered = false;
  bool release_verifier = false;
  registry.SetVerifyHookForTest(
      [&](const std::string&, NumericFormat format) {
        if (format != NumericFormat::kFP16) return;  // Block FP16 only.
        std::unique_lock<std::mutex> lock(mu);
        verifier_entered = true;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return release_verifier; });
      });

  std::thread blocked([&] {
    EXPECT_TRUE(registry.GetVariant("mlp", NumericFormat::kFP16).ok());
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return verifier_entered; }));
  }
  // The FP16 lease is parked inside its checksum pass. A BF16 lease must
  // complete regardless.
  auto other = registry.GetVariant("mlp", NumericFormat::kBF16);
  EXPECT_TRUE(other.ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    release_verifier = true;
  }
  cv.notify_all();
  blocked.join();
  registry.SetVerifyHookForTest(nullptr);
}

TEST(ModelRegistryTest, ChecksumMismatchRecoversByRequantizing) {
  ServerConfig cfg;
  cfg.verify_variants = true;
  ModelRegistry registry(cfg);
  ASSERT_TRUE(registry.Register("mlp", SmallMlp(), {1, 6}).ok());

  auto leased = registry.GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(leased.ok());
  const uint64_t good_checksum = (*leased)->checksum;
  ASSERT_EQ(ModelRegistry::ChecksumModel((*leased)->model), good_checksum);

  // Simulate bit rot on the cached copy: flip one resident weight.
  std::vector<nn::Param> params = (*leased)->model.Params();
  ASSERT_FALSE(params.empty());
  (*params[0].value)[0] += 1.0f;

  const uint64_t failures_before =
      CounterValue("errorflow.serve.decode_failures");
  const uint64_t quantize_before =
      CounterValue("errorflow.serve.registry.quantize_count");
  auto fresh = registry.GetVariant("mlp", NumericFormat::kFP16);
  ASSERT_TRUE(fresh.ok());
  // The corrupt copy was detected, dropped, and replaced by a clean
  // re-quantization from the FP32 base.
  EXPECT_EQ(CounterValue("errorflow.serve.decode_failures"),
            failures_before + 1);
  EXPECT_EQ(CounterValue("errorflow.serve.registry.quantize_count"),
            quantize_before + 1);
  EXPECT_NE(fresh->get(), leased->get());
  EXPECT_EQ(ModelRegistry::ChecksumModel((*fresh)->model),
            (*fresh)->checksum);
  EXPECT_EQ((*fresh)->checksum, good_checksum);
}

// N threads x M models x all formats with verification on, plus racing
// invalidations: every lease must return a usable variant. TSan (CI) has
// no data-race candidates if the registry is locked correctly.
TEST(ModelRegistryTest, ConcurrentLeaseHammer) {
  ServerConfig cfg;
  cfg.verify_variants = true;
  ModelRegistry registry(cfg);
  const int kModels = 3;
  std::vector<std::string> names;
  for (int m = 0; m < kModels; ++m) {
    names.push_back("mlp_" + std::to_string(m));
    ASSERT_TRUE(
        registry
            .Register(names.back(), SmallMlp(names.back(), 7 + m), {1, 6})
            .ok());
  }

  constexpr int kThreads = 8;
  constexpr int kLeasesPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      tensor::Tensor input = testing::RandomTensor({2, 6}, 100 + t);
      for (int i = 0; i < kLeasesPerThread; ++i) {
        const std::string& name = names[(t + i) % kModels];
        const NumericFormat format = quant::AllFormats()[(t * 3 + i) % 5];
        auto variant = registry.GetVariant(name, format);
        if (!variant.ok()) {
          ++failures;
          continue;
        }
        // Execute through the lease: catches use-after-eviction.
        tensor::Tensor out = (*variant)->model.Predict(input);
        if (out.dim(0) != 2 || out.dim(1) != 4) ++failures;
        if (i % 16 == t % 16) registry.InvalidateVariant(name, format);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The cache settles to at most one resident copy per (model, format).
  EXPECT_LE(registry.variant_count(), kModels * 5);
}

}  // namespace
}  // namespace serve
}  // namespace errorflow
