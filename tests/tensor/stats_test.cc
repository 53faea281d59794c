#include "tensor/stats.h"

#include <cmath>

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace errorflow {
namespace tensor {
namespace {

TEST(StatsTest, SummarizeKnownValues) {
  Tensor t = testing::FromValues({1, 2, 3, 4});
  const Summary s = Summarize(t);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-9);
  EXPECT_EQ(s.count, 4);
}

TEST(StatsTest, SummarizeEmpty) {
  Tensor t;
  const Summary s = Summarize(t);
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(StatsTest, SummarizeConstant) {
  Tensor t = testing::Full({8}, 3.0f);
  const Summary s = Summarize(t);
  EXPECT_DOUBLE_EQ(s.min, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(StatsTest, ValueRange) {
  EXPECT_DOUBLE_EQ(ValueRange(testing::FromValues({-2, 0, 5})), 7.0);
  EXPECT_DOUBLE_EQ(ValueRange(Tensor()), 0.0);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_NEAR(GeometricMean({1.0, 100.0}), 10.0, 1e-9);
  EXPECT_NEAR(GeometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(StatsTest, GeometricMeanSkipsNonPositive) {
  EXPECT_NEAR(GeometricMean({0.0, -5.0, 4.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
  EXPECT_DOUBLE_EQ(GeometricMean({0.0}), 0.0);
}

}  // namespace
}  // namespace tensor
}  // namespace errorflow
