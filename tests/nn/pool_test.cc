#include "nn/pool.h"

#include "gtest/gtest.h"
#include "tensor/norms.h"
#include "testing/test_util.h"

namespace errorflow {
namespace nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(GlobalAvgPoolTest, Forward) {
  GlobalAvgPoolLayer gap;
  Tensor x({2, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  for (int64_t i = 8; i < 16; ++i) x[i] = 1.0f;
  Tensor out;
  gap.Forward(x, &out, false);
  ASSERT_EQ(out.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.5f);   // mean(0,1,2,3)
  EXPECT_FLOAT_EQ(out.at(0, 1), 5.5f);   // mean(4,5,6,7)
  EXPECT_FLOAT_EQ(out.at(1, 0), 1.0f);
}

TEST(GlobalAvgPoolTest, BackwardSpreadsGradient) {
  GlobalAvgPoolLayer gap;
  Tensor x = testing::RandomTensor({1, 2, 2, 2}, 3);
  Tensor out, grad_in;
  gap.Forward(x, &out, true);
  Tensor grad_out({1, 2}, {4.0f, 8.0f});
  gap.Backward(grad_out, &grad_in);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(grad_in[i], 1.0f);
  for (int64_t i = 4; i < 8; ++i) EXPECT_FLOAT_EQ(grad_in[i], 2.0f);
}

// The profiler passes error through global average pooling with gain 1
// (core/spectral_profile.cc), which needs it to be a contraction.
TEST(GlobalAvgPoolTest, IsContraction) {
  GlobalAvgPoolLayer gap;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Tensor x = testing::RandomTensor({2, 3, 8, 8}, seed);
    Tensor out;
    gap.Forward(x, &out, false);
    EXPECT_LE(tensor::L2Norm(out), tensor::L2Norm(x) * (1 + 1e-6));
  }
}

TEST(PoolTest, Clones) {
  const auto c = GlobalAvgPoolLayer().Clone();
  ASSERT_NE(dynamic_cast<GlobalAvgPoolLayer*>(c.get()), nullptr);
  EXPECT_EQ(c->OutputShape({2, 3, 5, 7}), (Shape{2, 3}));
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
