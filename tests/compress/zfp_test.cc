#include "compress/zfp.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "compress/sz.h"
#include "compress/mgard.h"
#include "tensor/norms.h"
#include "testing/test_util.h"
#include "util/timer.h"

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
  const Tensor data = Tensor::Full({20}, 5.0f);
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

TEST(ZfpTest, DecompressionFasterThanSzAndMgard) {
  // The property the paper's Fig. 7 relies on. Use a large field so the
  // comparison is not noise-dominated.
  const Tensor data = testing::SmoothField2d(512, 512, 3);
  ZfpCompressor zfp;
  SzCompressor sz;
  MgardCompressor mgard;
  const ErrorBound bound = ErrorBound::AbsLinf(1e-4);

  Compressor* const comps[] = {&zfp, &sz, &mgard};
  std::string blobs[3];
  for (int c = 0; c < 3; ++c) {
    auto compressed = comps[c]->Compress(data, bound);
    ASSERT_TRUE(compressed.ok());
    blobs[c] = std::move(compressed->blob);
  }
  // Minimum over interleaved rounds: every round decodes with all three,
  // so a burst of load from other processes slows each of them in turn
  // rather than the one whose runs happened to fall inside it.
  double best[3] = {1e30, 1e30, 1e30};
  for (int round = 0; round < 10; ++round) {
    for (int c = 0; c < 3; ++c) {
      auto d = comps[c]->Decompress(blobs[c]);
      ASSERT_TRUE(d.ok());
      best[c] = std::min(best[c], d->seconds);
    }
  }
  const double t_zfp = best[0];
  const double t_sz = best[1];
  const double t_mgard = best[2];
  EXPECT_LT(t_zfp, t_sz);
  EXPECT_LT(t_zfp, t_mgard);
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
