#include "compress/sz.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>

#include "gtest/gtest.h"
#include "tensor/norms.h"
#include "testing/test_util.h"

namespace errorflow {
namespace compress {
namespace {

using tensor::Norm;
using tensor::Tensor;

TEST(SzTest, PointwiseBoundHoldsEverywhere) {
  SzCompressor sz;
  const Tensor data = testing::SmoothField2d(80, 80, 1);
  const double eb = 5e-4;
  auto c = sz.Compress(data, ErrorBound::AbsLinf(eb));
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->resolved_abs_tolerance, eb);
  auto d = sz.Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  for (int64_t i = 0; i < data.size(); ++i) {
    EXPECT_LE(std::fabs(static_cast<double>(d->data[i]) - data[i]), eb)
        << "element " << i;
  }
}

TEST(SzTest, LorenzoPredictionExploits2dStructure) {
  // A linear ramp is perfectly predicted by the 2-D Lorenzo stencil, so
  // nearly all codes are zero and the ratio becomes very large.
  Tensor data({64, 64});
  for (int64_t i = 0; i < 64; ++i) {
    for (int64_t j = 0; j < 64; ++j) {
      data.at(i, j) = static_cast<float>(i) * 0.01f +
                      static_cast<float>(j) * 0.02f;
    }
  }
  SzCompressor sz;
  auto c = sz.Compress(data, ErrorBound::AbsLinf(1e-4));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c->ratio(), 20.0);
}

TEST(SzTest, L2BoundViaPointwiseSplit) {
  SzCompressor sz;
  const Tensor data = testing::SmoothField2d(50, 50, 2);
  auto c = sz.Compress(data, ErrorBound::AbsL2(1e-2));
  ASSERT_TRUE(c.ok());
  auto d = sz.Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kL2), 1e-2 * (1 + 1e-9));
}

TEST(SzTest, OutliersTakeEscapePath) {
  // A field with one huge spike: the spike must survive exactly bounded.
  Tensor data = testing::SmoothField2d(32, 32, 3);
  data.at(16, 16) = 1e9f;
  SzCompressor sz;
  auto c = sz.Compress(data, ErrorBound::AbsLinf(1e-5));
  ASSERT_TRUE(c.ok());
  auto d = sz.Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(std::fabs(d->data.at(16, 16) - 1e9f), 1e-5f + 1e9f * 1e-7f);
}

// Escaped values are stored as the input floats themselves, so signalling
// NaNs and NaN payloads come back bit for bit at every optimisation level
// (a round trip through double would quiet a signalling NaN).
TEST(SzTest, NanPayloadsRoundTripBitExact) {
  const uint32_t nan_bits[] = {0x7F800001u, 0xFF800001u, 0x7FA5A5A5u,
                               0x7FC0BEEFu, 0xFFC01234u, 0x7FFFFFFFu};
  Tensor data = testing::SmoothField2d(16, 16, 5);
  for (size_t i = 0; i < std::size(nan_bits); ++i) {
    std::memcpy(&data[static_cast<int64_t>(i * 41)], &nan_bits[i],
                sizeof(float));
  }
  SzCompressor sz;
  for (const double eb : {1e-3, 1e-6}) {
    SCOPED_TRACE(::testing::Message() << "eb=" << eb);
    auto c = sz.Compress(data, ErrorBound::AbsLinf(eb));
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    auto d = sz.Decompress(c->blob);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    for (size_t i = 0; i < std::size(nan_bits); ++i) {
      uint32_t got;
      std::memcpy(&got, &d->data[static_cast<int64_t>(i * 41)], sizeof(got));
      EXPECT_EQ(got, nan_bits[i]) << "element " << i * 41;
    }
  }
}

TEST(SzTest, HigherToleranceHigherRatio) {
  SzCompressor sz;
  const Tensor data = testing::SmoothField2d(64, 64, 4);
  double prev_ratio = 0.0;
  for (double tol : {1e-6, 1e-4, 1e-2}) {
    auto c = sz.Compress(data, ErrorBound::AbsLinf(tol));
    ASSERT_TRUE(c.ok());
    EXPECT_GE(c->ratio(), prev_ratio);
    prev_ratio = c->ratio();
  }
}

TEST(SzTest, BlobIsSelfDescribing) {
  SzCompressor sz;
  const Tensor data = testing::SmoothField2d(10, 20, 5);
  auto c = sz.Compress(data, ErrorBound::AbsLinf(1e-3));
  ASSERT_TRUE(c.ok());
  SzCompressor other;  // Stateless: any instance can decode.
  auto d = other.Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->data.shape(), (tensor::Shape{10, 20}));
}

TEST(SzTest, WrongMagicRejected) {
  SzCompressor sz;
  std::string blob = "XXXXYYYYZZZZWWWWVVVVUUUU";
  EXPECT_FALSE(sz.Decompress(blob).ok());
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
