#include "nn/serialize.h"

#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "testing/test_util.h"

namespace errorflow {
namespace nn {
namespace {

using tensor::Tensor;

Model SampleMlp() {
  MlpConfig cfg;
  cfg.name = "sample";
  cfg.input_dim = 5;
  cfg.hidden_dims = {7, 6};
  cfg.output_dim = 2;
  cfg.activation = ActivationKind::kTanh;
  cfg.seed = 21;
  return BuildMlp(cfg);
}

Model SampleResNet() {
  ResNetConfig cfg;
  cfg.name = "sample-resnet";
  cfg.in_channels = 2;
  cfg.num_classes = 4;
  cfg.stage_channels = {4, 8};
  cfg.stage_blocks = {1, 1};
  cfg.seed = 22;
  return BuildResNet(cfg);
}

void ExpectSamePredictions(Model& a, Model& b, const Tensor& x) {
  const Tensor pa = a.Predict(x);
  const Tensor pb = b.Predict(x);
  ASSERT_EQ(pa.shape(), pb.shape());
  for (int64_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(SerializeTest, MlpRoundTrip) {
  Model m = SampleMlp();
  auto restored = DeserializeModel(SerializeModel(m));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->name(), "sample");
  const Tensor x = testing::RandomTensor({3, 5}, 1);
  ExpectSamePredictions(m, *restored, x);
}

TEST(SerializeTest, ResNetRoundTrip) {
  Model m = SampleResNet();
  auto restored = DeserializeModel(SerializeModel(m));
  ASSERT_TRUE(restored.ok());
  const Tensor x = testing::RandomTensor({2, 2, 8, 8}, 2);
  ExpectSamePredictions(m, *restored, x);
}

TEST(SerializeTest, PsnModelRoundTripsAlpha) {
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden_dims = {4};
  cfg.output_dim = 2;
  cfg.use_psn = true;
  cfg.seed = 23;
  Model m = BuildMlp(cfg);
  auto restored = DeserializeModel(SerializeModel(m));
  ASSERT_TRUE(restored.ok());
  const Tensor x = testing::RandomTensor({2, 3}, 3);
  const Tensor pa = m.Predict(x), pb = restored->Predict(x);
  for (int64_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-6);
}

TEST(SerializeTest, BadMagicRejected) {
  auto r = DeserializeModel("NOPE....");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, TruncationRejected) {
  Model m = SampleMlp();
  std::string buf = SerializeModel(m);
  buf.resize(buf.size() / 2);
  EXPECT_FALSE(DeserializeModel(buf).ok());
}

TEST(SerializeTest, EmptyBufferRejected) {
  EXPECT_FALSE(DeserializeModel("").ok());
}

TEST(SerializeTest, SaveLoadFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ef_serialize_test.efm")
          .string();
  Model m = SampleMlp();
  ASSERT_TRUE(SaveModel(m, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  const Tensor x = testing::RandomTensor({1, 5}, 4);
  ExpectSamePredictions(m, *loaded, x);
  std::remove(path.c_str());
}

uint64_t BytesDigest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The three task architectures (src/tasks/tasks.cc) as freshly built PSN
// models, serialized bytes pinned by digest. A model stored by an earlier
// build (ef_model_cache/) keeps loading only while the layer tags and the
// activation-kind bytes stay where they are. Each also re-serializes byte
// for byte after a load.
TEST(SerializeTest, TaskModelBytesPinned) {
  MlpConfig h2;
  h2.name = "h2-mlp";
  h2.input_dim = 9;
  h2.hidden_dims = {50, 50};
  h2.output_dim = 9;
  h2.activation = ActivationKind::kTanh;
  h2.use_psn = true;
  h2.seed = 1;
  MlpConfig borghesi;
  borghesi.name = "borghesi-mlp";
  borghesi.input_dim = 13;
  borghesi.hidden_dims = std::vector<int64_t>(8, 40);
  borghesi.output_dim = 3;
  borghesi.activation = ActivationKind::kPReLU;
  borghesi.use_psn = true;
  borghesi.seed = 1;
  ResNetConfig eurosat;
  eurosat.name = "eurosat-resnet18";
  eurosat.in_channels = 13;
  eurosat.num_classes = 10;
  eurosat.stage_channels = {8, 16, 32, 64};
  eurosat.stage_blocks = {2, 2, 2, 2};
  eurosat.activation = ActivationKind::kReLU;
  eurosat.use_psn = true;
  eurosat.seed = 1;
  const std::pair<Model, uint64_t> cases[] = {
      {BuildMlp(h2), 0x2e3789cabab8acd6ull},
      {BuildMlp(borghesi), 0x6bf13b7b79007de2ull},
      {BuildResNet(eurosat), 0x9d7e4feb4a22fc50ull},
  };
  for (const auto& [model, digest] : cases) {
    const std::string bytes = SerializeModel(model);
    EXPECT_EQ(BytesDigest(bytes), digest)
        << model.name() << std::hex << " 0x" << BytesDigest(bytes);
    auto loaded = DeserializeModel(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(SerializeModel(*loaded), bytes) << model.name();
  }
}

TEST(SerializeTest, LoadMissingFileIsIOError) {
  auto r = LoadModel("/nonexistent/path/model.efm");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
