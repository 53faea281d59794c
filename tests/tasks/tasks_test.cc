#include "tasks/tasks.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "gtest/gtest.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "tensor/norms.h"
#include "testing/test_util.h"

namespace errorflow {
namespace tasks {
namespace {

std::string CacheDir() {
  return ::testing::TempDir() + "ef_tasks_test_cache";
}

TEST(TasksTest, DefaultModelCacheDirHonorsEnvOverride) {
  const char* saved = std::getenv("ERRORFLOW_CACHE_DIR");
  const std::string saved_copy = saved == nullptr ? "" : saved;

  unsetenv("ERRORFLOW_CACHE_DIR");
  EXPECT_EQ(DefaultModelCacheDir(), "ef_model_cache");
  setenv("ERRORFLOW_CACHE_DIR", "/tmp/ef_custom_cache", 1);
  EXPECT_EQ(DefaultModelCacheDir(), "/tmp/ef_custom_cache");
  setenv("ERRORFLOW_CACHE_DIR", "", 1);  // Empty counts as unset.
  EXPECT_EQ(DefaultModelCacheDir(), "ef_model_cache");

  if (saved == nullptr) {
    unsetenv("ERRORFLOW_CACHE_DIR");
  } else {
    setenv("ERRORFLOW_CACHE_DIR", saved_copy.c_str(), 1);
  }
}

TEST(TasksTest, NamesAndEnums) {
  EXPECT_STREQ(TaskKindToString(TaskKind::kH2Combustion), "h2combustion");
  EXPECT_STREQ(TaskKindToString(TaskKind::kBorghesiFlame), "borghesiflame");
  EXPECT_STREQ(TaskKindToString(TaskKind::kEuroSat), "eurosat");
  EXPECT_STREQ(RegularizationToString(Regularization::kPsn), "psn");
  EXPECT_STREQ(RegularizationToString(Regularization::kBaseline),
               "baseline");
  EXPECT_STREQ(RegularizationToString(Regularization::kWeightDecay), "wd");
}

TEST(TasksTest, H2TaskTrainsAndFits) {
  TrainedTask task =
      GetTask(TaskKind::kH2Combustion, Regularization::kPsn, 1, CacheDir());
  EXPECT_EQ(task.single_input_shape, (tensor::Shape{1, 9}));
  EXPECT_FALSE(task.classification);
  EXPECT_GT(task.train.size(), task.test.size());
  const double mse = nn::Trainer::Evaluate(&task.model, task.test.inputs,
                                           task.test.targets, nn::MseLoss());
  EXPECT_LT(mse, 5e-3);  // Normalized targets: must clearly beat variance.
}

TEST(TasksTest, CacheRoundTripsExactly) {
  TrainedTask first =
      GetTask(TaskKind::kH2Combustion, Regularization::kPsn, 1, CacheDir());
  // Second call must load from cache and predict identically.
  TrainedTask second =
      GetTask(TaskKind::kH2Combustion, Regularization::kPsn, 1, CacheDir());
  const tensor::Tensor a = first.model.Predict(first.test.inputs);
  const tensor::Tensor b = second.model.Predict(second.test.inputs);
  EXPECT_EQ(tensor::DiffNorm(a, b, tensor::Norm::kLinf), 0.0);
}

TEST(TasksTest, InputsNormalizedToUnitRange) {
  TrainedTask task =
      GetTask(TaskKind::kH2Combustion, Regularization::kPsn, 1, CacheDir());
  for (int64_t i = 0; i < task.train.inputs.size(); ++i) {
    EXPECT_GE(task.train.inputs[i], -1.0f - 1e-6f);
    EXPECT_LE(task.train.inputs[i], 1.0f + 1e-6f);
  }
}

TEST(TasksTest, FreshBatchesAreIndependentAndNormalized) {
  TrainedTask task =
      GetTask(TaskKind::kH2Combustion, Regularization::kPsn, 1, CacheDir());
  const auto batches = FreshInputBatches(task, 3);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_GT(tensor::DiffNorm(batches[0], batches[1], tensor::Norm::kLinf),
            1e-6);
  for (const auto& batch : batches) {
    EXPECT_EQ(batch.dim(1), 9);
    // Fresh fields may exceed the training range slightly, but stay close.
    for (int64_t i = 0; i < batch.size(); ++i) {
      EXPECT_GE(batch[i], -1.5f);
      EXPECT_LE(batch[i], 1.5f);
    }
  }
}

// The h2 task's PSN model (seed 1) as an earlier build trained and stored
// it. It must keep loading, re-serialize byte for byte and predict the
// same bits on every kernel path: a format change that also changed the
// writer, or a kernel change that moved a bit, fails here, where
// SerializeTest's freshly built models would not notice.
TEST(TasksTest, StoredH2ModelLoadsAndPredictsPinnedBits) {
  const std::string file = "h2combustion.psn.seed1.v4.efm";
  const std::string stored = std::string(EF_TASKS_TESTDATA_DIR) + "/" + file;
  std::ifstream in(stored, std::ios::binary);
  ASSERT_TRUE(in) << stored;
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  ASSERT_EQ(bytes.size(), 14260u);
  auto loaded = nn::DeserializeModel(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(nn::SerializeModel(*loaded), bytes);

  // Through the model cache, which also rebuilds the task's input
  // normalization for its fresh batches; a retrain would change the bytes.
  const std::string dir = ::testing::TempDir() + "ef_stored_model_cache";
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(
      stored, dir + "/" + file,
      std::filesystem::copy_options::overwrite_existing);
  TrainedTask task =
      GetTask(TaskKind::kH2Combustion, Regularization::kPsn, 1, dir);
  ASSERT_EQ(task.name + ".efm", file);
  EXPECT_EQ(nn::SerializeModel(task.model), bytes);
  const tensor::Tensor batch = FreshInputBatches(task, 1, 100)[0];
  ASSERT_EQ(batch.shape(), (tensor::Shape{1024, 9}));
  testing::ForEachKernelPath([&] {
    const tensor::Tensor out = task.model.Predict(batch);
    EXPECT_EQ(testing::Digest(out), 0xc3e59c445dec79dbull)
        << std::hex << "0x" << testing::Digest(out);
  });
}

TEST(TasksTest, RegularizationVariantsDiffer) {
  TrainedTask psn =
      GetTask(TaskKind::kH2Combustion, Regularization::kPsn, 1, CacheDir());
  TrainedTask base = GetTask(TaskKind::kH2Combustion,
                             Regularization::kBaseline, 1, CacheDir());
  const tensor::Tensor a = psn.model.Predict(psn.test.inputs);
  const tensor::Tensor b = base.model.Predict(base.test.inputs);
  EXPECT_GT(tensor::DiffNorm(a, b, tensor::Norm::kLinf), 1e-6);
}

}  // namespace
}  // namespace tasks
}  // namespace errorflow
