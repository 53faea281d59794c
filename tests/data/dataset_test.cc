#include "data/dataset.h"

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace errorflow {
namespace data {
namespace {

using tensor::Tensor;

TEST(NormalizerTest, MapsToUnitInterval) {
  Tensor data({3, 2}, {0, 10, 5, 20, 10, 30});
  const Normalizer norm = Normalizer::Fit(data);
  const Tensor out = norm.Apply(data);
  EXPECT_FLOAT_EQ(out.at(0, 0), -1.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), -1.0f);
  EXPECT_FLOAT_EQ(out.at(2, 1), 1.0f);
}

TEST(NormalizerTest, ConstantFeatureMapsToZero) {
  Tensor data({3, 1}, {7, 7, 7});
  const Normalizer norm = Normalizer::Fit(data);
  const Tensor out = norm.Apply(data);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(out[i], 0.0f);
}

TEST(NormalizerTest, PerChannelForImagery) {
  Tensor data({2, 2, 2, 2});
  // Channel 0 in [0, 1], channel 1 in [10, 20].
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t i = 0; i < 4; ++i) {
      data[n * 8 + i] = static_cast<float>(i) / 3.0f;
      data[n * 8 + 4 + i] = 10.0f + static_cast<float>(i) * 10.0f / 3.0f;
    }
  }
  const Normalizer norm = Normalizer::Fit(data);
  const Tensor out = norm.Apply(data);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], -1.0f);
    EXPECT_LE(out[i], 1.0f);
  }
  EXPECT_FLOAT_EQ(out[0], -1.0f);   // channel 0 min
  EXPECT_FLOAT_EQ(out[4], -1.0f);   // channel 1 min
}

TEST(NormalizerTest, AppliesTrainStatsToNewData) {
  Tensor train({2, 1}, {0, 10});
  const Normalizer norm = Normalizer::Fit(train);
  Tensor fresh({1, 1}, {15});  // Out of the fitted range.
  EXPECT_FLOAT_EQ(norm.Apply(fresh)[0], 2.0f);
}

TEST(SplitDatasetTest, SplitsRowsExactly) {
  Dataset all;
  all.name = "d";
  all.inputs = testing::RandomTensor({10, 3}, 2);
  all.targets = testing::RandomTensor({10, 2}, 3);
  Dataset train, test;
  SplitDataset(all, 7, &train, &test);
  EXPECT_EQ(train.size(), 7);
  EXPECT_EQ(test.size(), 3);
  // Row 7 of all is row 0 of test.
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_EQ(test.inputs.at(0, j), all.inputs.at(7, j));
  }
  for (int64_t j = 0; j < 2; ++j) {
    EXPECT_EQ(test.targets.at(0, j), all.targets.at(7, j));
  }
}

TEST(SplitDatasetTest, Rank4InputsAndClassTargets) {
  Dataset all;
  all.inputs = testing::RandomTensor({6, 2, 4, 4}, 4);
  all.targets = Tensor({6}, {0, 1, 2, 0, 1, 2});
  Dataset train, test;
  SplitDataset(all, 4, &train, &test);
  EXPECT_EQ(train.inputs.shape(), (tensor::Shape{4, 2, 4, 4}));
  EXPECT_EQ(test.targets.shape(), (tensor::Shape{2}));
  EXPECT_EQ(test.targets[0], 1.0f);
}

}  // namespace
}  // namespace data
}  // namespace errorflow
