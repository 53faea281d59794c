// Fuzz and regression coverage for the model deserializer: every layer
// type round-trips, structure-aware mutations of serialized models never
// crash or over-allocate, and the specific integer-overflow defects fixed
// in the checked-decode work stay fixed. Runs inside ef_fuzz_tests (with
// the 256 MiB allocation guard).
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/serialize.h"
#include "testing/alloc_guard.h"
#include "testing/fuzz_util.h"

namespace errorflow {
namespace nn {
namespace {

// The two samples exercise every serializable layer type and activation
// kind: the ResNet has Conv2d, ReLU activations, ResidualBlock (with and
// without projection shortcut), GlobalAvgPool and Dense; the MLP has PSN
// Dense layers and PReLU.
Model SampleResNet() {
  ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 3;
  cfg.stage_channels = {4, 6};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 9;
  return BuildResNet(cfg);
}

Model SampleMlp() {
  MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_dims = {7, 6};
  cfg.output_dim = 3;
  cfg.activation = ActivationKind::kPReLU;
  cfg.use_psn = true;
  cfg.seed = 3;
  return BuildMlp(cfg);
}

TEST(SerializeFuzzTest, EveryLayerTypeRoundTrips) {
  const Model models[] = {SampleResNet(), SampleMlp()};
  for (const Model& m : models) {
    const std::string buf = SerializeModel(m);
    auto restored = DeserializeModel(buf);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(SerializeModel(*restored), buf);
  }
}

TEST(SerializeFuzzTest, StructureAwareMutationsHandled) {
  std::vector<std::string> corpus = {SerializeModel(SampleResNet()),
                                     SerializeModel(SampleMlp())};
  testing::BlobMutator mutator(std::move(corpus), /*seed=*/0xEF);
  testing::ResetMaxSingleAlloc();
  const auto stats = testing::RunFuzz(
      &mutator, testing::FuzzIterations(), [](const std::string& blob) {
        auto result = DeserializeModel(blob);
        (void)result;  // Either a typed error or a parseable model.
      });
  EXPECT_EQ(stats.oversize_allocs, 0);
  EXPECT_LE(testing::MaxSingleAllocBytes(), testing::kAllocGuardLimitBytes);
}

// Minimal writer mirroring the EFM1 encoding, for crafting hostile buffers.
class BlobBuilder {
 public:
  BlobBuilder& U8(uint8_t v) {
    buf_.push_back(static_cast<char>(v));
    return *this;
  }
  BlobBuilder& I64(int64_t v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
    return *this;
  }
  BlobBuilder& F32(float v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
    return *this;
  }
  const std::string& str() const { return buf_; }

 private:
  std::string buf_ = "EFM1";
};

// Regression: a length field near INT64_MAX used to pass the
// `pos_ + n > size` bounds check by wrapping, handing the huge length to
// the string constructor.
TEST(SerializeRegressionTest, HugeStringLengthRejected) {
  BlobBuilder b;
  b.I64(INT64_MAX - 2);  // Model-name length; pos_ + n wraps nothing now.
  testing::ResetMaxSingleAlloc();
  auto result = DeserializeModel(b.str());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

// Regression: individually in-range tensor dims whose product wraps
// 64-bit — [2^28, 2^28, 256] multiplies to exactly 2^64 = 0 — used to
// produce a zero-byte "need" and a Tensor whose shape disagrees with its
// buffer, which the Tensor constructor EF_CHECKs (process abort).
TEST(SerializeRegressionTest, TensorShapeProductOverflowRejected) {
  BlobBuilder b;
  b.I64(0);               // Empty model name.
  b.I64(1);               // One layer.
  b.U8(1);                // kTagDense.
  b.I64(4).I64(2);        // in=4, out=2: plausible dims.
  b.U8(0);                // use_psn = false.
  b.F32(1.0f);            // alpha.
  b.I64(3);               // Weight tensor rank 3.
  b.I64(int64_t{1} << 28).I64(int64_t{1} << 28).I64(256);
  testing::ResetMaxSingleAlloc();
  auto result = DeserializeModel(b.str());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

// A shape under 2^64 but over the element cap must also be refused before
// its (impossible) payload is sized.
TEST(SerializeRegressionTest, TensorElementCapEnforced) {
  BlobBuilder b;
  b.I64(0);
  b.I64(1);
  b.U8(1);
  b.I64(4).I64(2);
  b.U8(0);
  b.F32(1.0f);
  b.I64(2);  // Rank 2: 2^28 * 2^28 = 2^56 elements, far over the cap.
  b.I64(int64_t{1} << 28).I64(int64_t{1} << 28);
  testing::ResetMaxSingleAlloc();
  auto result = DeserializeModel(b.str());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

// Regression: the dense header's dims used to size the layer's weight and
// gradient buffers before the payload shapes were checked, so 12288 x 12288
// with a one-element weight allocated 604 MB per buffer.
TEST(SerializeRegressionTest, HugeDenseHeaderWithTinyWeightRejected) {
  BlobBuilder b;
  b.I64(0);
  b.I64(1);
  b.U8(1);                  // kTagDense.
  b.I64(12288).I64(12288);  // in, out: within kMaxLayerDim.
  b.U8(0);
  b.F32(1.0f);
  b.I64(1).I64(1).F32(0.5f);  // Weight: rank 1, one element.
  b.I64(1).I64(1).F32(0.0f);  // Bias: rank 1, one element.
  testing::ResetMaxSingleAlloc();
  auto result = DeserializeModel(b.str());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_LT(testing::MaxSingleAllocBytes(), uint64_t{1} << 20);
}

// `blob` fails to load as Corruption, with a message that names `what`.
void ExpectCorruptionNaming(const std::string& blob, const std::string& what) {
  auto result = DeserializeModel(blob);
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption) << what;
  EXPECT_NE(result.status().message().find(what), std::string::npos)
      << result.status().ToString();
}

// Activation-kind bytes that name no kind are corruption, both on an
// activation layer and on a residual block's post-activation. Kinds 1
// (LeakyReLU), 4 (GeLU) and 5 (Identity) are retired and fail like any
// other such byte.
TEST(SerializeRegressionTest, UnknownActivationKindRejected) {
  for (const int kind : {1, 4, 5, 6, 200}) {
    const std::string what = "unknown activation kind " + std::to_string(kind);
    BlobBuilder layer;
    layer.I64(0).I64(1);
    layer.U8(3);     // kTagActivation.
    layer.U8(static_cast<uint8_t>(kind));
    layer.F32(0.0f);
    ExpectCorruptionNaming(layer.str(), what);

    BlobBuilder block;
    block.I64(0).I64(1);
    block.U8(4);     // kTagResidual.
    block.I64(0);    // Empty body.
    block.U8(0);     // No shortcut.
    block.U8(1);     // Has a post-activation...
    block.U8(static_cast<uint8_t>(kind));  // ...of this kind.
    ExpectCorruptionNaming(block.str(), what);
  }
}

// Tags 5 (AvgPool2d, with its i64 window) and 7 (Flatten) are retired.
TEST(SerializeRegressionTest, RetiredLayerTagsRejected) {
  BlobBuilder pool;
  pool.I64(0).I64(1);
  pool.U8(5).I64(2);
  ExpectCorruptionNaming(pool.str(), "unknown layer tag 5");

  BlobBuilder flatten;
  flatten.I64(0).I64(1);
  flatten.U8(7);
  ExpectCorruptionNaming(flatten.str(), "unknown layer tag 7");
}

// A zero-element tensor decodes without touching its (null) buffer; the
// dense layer then rejects it on shape.
TEST(SerializeRegressionTest, ZeroElementTensorHandled) {
  BlobBuilder b;
  b.I64(0);
  b.I64(1);
  b.U8(1);
  b.I64(4).I64(2);
  b.U8(0);
  b.F32(1.0f);
  b.I64(1).I64(0);  // Weight: rank 1, zero elements.
  b.I64(1).I64(2);  // Bias: rank 1, two elements.
  b.F32(0.0f).F32(0.0f);
  auto result = DeserializeModel(b.str());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
