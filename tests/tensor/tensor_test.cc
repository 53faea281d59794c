#include "tensor/tensor.h"

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace errorflow {
namespace tensor {
namespace {

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(NumElements({}), 1);
  EXPECT_EQ(NumElements({5}), 5);
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
  EXPECT_EQ(NumElements({0, 7}), 0);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
  EXPECT_EQ(ShapeToString({}), "[]");
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FullAndFill) {
  Tensor t = testing::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
  t.Fill(-1.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], -1.0f);
}

TEST(TensorTest, FromValues) {
  Tensor t = testing::FromValues({1, 2, 3});
  EXPECT_EQ(t.shape(), Shape({3}));
  EXPECT_EQ(t[1], 2.0f);
}

TEST(TensorTest, RowMajor2dAccess) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
  t.at(1, 2) = 9.0f;
  EXPECT_EQ(t[5], 9.0f);
}

TEST(TensorTest, NchwAccess) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[(((1 * 3) + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(TensorTest, ByteSize) {
  Tensor t({10});
  EXPECT_EQ(t.byte_size(), 40);
}

TEST(TensorTest, EmptyTensor) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
}

}  // namespace
}  // namespace tensor
}  // namespace errorflow
