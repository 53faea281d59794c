#include "compress/zfp.h"

#include <cmath>

#include "gtest/gtest.h"
#include "compress/sz.h"
#include "compress/mgard.h"
#include "tensor/norms.h"
#include "testing/test_util.h"

namespace errorflow {
namespace compress {
namespace {

using tensor::Norm;
using tensor::Tensor;

TEST(ZfpTest, PointwiseBoundHolds) {
  ZfpCompressor zfp;
  const Tensor data = testing::SmoothField2d(61, 67, 1);  // Partial blocks.
  const double eb = 1e-3;
  auto c = zfp.Compress(data, ErrorBound::AbsLinf(eb));
  ASSERT_TRUE(c.ok());
  auto d = zfp.Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  for (int64_t i = 0; i < data.size(); ++i) {
    EXPECT_LE(std::fabs(static_cast<double>(d->data[i]) - data[i]), eb);
  }
}

TEST(ZfpTest, L2ModeNotSupported) {
  ZfpCompressor zfp;
  EXPECT_FALSE(zfp.SupportsNorm(Norm::kL2));
  const Tensor data = testing::SmoothField2d(16, 16, 2);
  EXPECT_EQ(zfp.Compress(data, ErrorBound::RelL2(1e-3)).status().code(),
            StatusCode::kNotImplemented);
}

TEST(ZfpTest, ZeroToleranceFallsBackToLossless) {
  ZfpCompressor zfp;
  const Tensor data = testing::Full({20}, 5.0f);
  auto c = zfp.Compress(data, ErrorBound::RelLinf(1e-3));  // range 0 -> eb 0
  ASSERT_TRUE(c.ok());
  auto d = zfp.Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  for (int64_t i = 0; i < data.size(); ++i) EXPECT_EQ(d->data[i], data[i]);
}

TEST(ZfpTest, BlockAlignedAndUnalignedShapesAgreeOnBound) {
  ZfpCompressor zfp;
  for (const tensor::Shape& shape :
       {tensor::Shape{64, 64}, tensor::Shape{63, 65}, tensor::Shape{4, 4},
        tensor::Shape{5}, tensor::Shape{129}}) {
    Tensor data(shape);
    for (int64_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>(std::cos(0.05 * static_cast<double>(i)));
    }
    auto c = zfp.Compress(data, ErrorBound::AbsLinf(2e-4));
    ASSERT_TRUE(c.ok()) << tensor::ShapeToString(shape);
    auto d = zfp.Decompress(c->blob);
    ASSERT_TRUE(d.ok());
    EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kLinf), 2e-4)
        << tensor::ShapeToString(shape);
  }
}

TEST(ZfpTest, RoundTripWithinBoundBesideSzAndMgard) {
  // The field and bound of the paper's Fig. 7 decode-speed comparison.
  // Which backend decodes fastest is a wall-clock property, so it is
  // measured by bench_codec ("decode speed by backend"); this test keeps
  // the correctness half: all three round-trip within the bound.
  const Tensor data = testing::SmoothField2d(512, 512, 3);
  ZfpCompressor zfp;
  SzCompressor sz;
  MgardCompressor mgard;
  const double eb = 1e-4;
  const ErrorBound bound = ErrorBound::AbsLinf(eb);

  Compressor* const comps[] = {&zfp, &sz, &mgard};
  for (Compressor* comp : comps) {
    auto compressed = comp->Compress(data, bound);
    ASSERT_TRUE(compressed.ok()) << comp->name();
    auto d = comp->Decompress(compressed->blob);
    ASSERT_TRUE(d.ok()) << comp->name();
    ASSERT_EQ(d->data.shape(), data.shape()) << comp->name();
    EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kLinf), eb * (1 + 1e-9))
        << comp->name();
  }
}

TEST(ZfpTest, TransformedCoefficientsCompressSmoothBlocks) {
  const Tensor data = testing::SmoothField2d(128, 128, 4);
  ZfpCompressor zfp;
  auto c = zfp.Compress(data, ErrorBound::RelLinf(1e-3));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c->ratio(), 2.2);
}

TEST(ZfpTest, 3dFieldsSupported) {
  Tensor data({6, 12, 12});
  for (int64_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.02 * static_cast<double>(i)));
  }
  ZfpCompressor zfp;
  auto c = zfp.Compress(data, ErrorBound::AbsLinf(1e-4));
  ASSERT_TRUE(c.ok());
  auto d = zfp.Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kLinf), 1e-4);
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
