// Norm-semantics properties shared by all backends: relative bounds must
// resolve to exactly the equivalent absolute bounds (identical blobs,
// since every backend is deterministic), and L2 budgets must imply the
// expected pointwise behaviour.
#include <cmath>
#include <limits>

#include "compress/compressor.h"
#include "gtest/gtest.h"
#include "tensor/norms.h"
#include "tensor/stats.h"
#include "testing/test_util.h"

namespace errorflow {
namespace compress {
namespace {

using tensor::Norm;
using tensor::Tensor;

class NormSemanticsTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<Compressor> compressor_ = MakeCompressor(GetParam());
};

TEST_P(NormSemanticsTest, RelativeLinfEqualsScaledAbsolute) {
  const Tensor data = testing::SmoothField2d(48, 48, 1);
  const double rel = 1e-4;
  const double abs = rel * tensor::ValueRange(data);
  auto from_rel = compressor_->Compress(data, ErrorBound::RelLinf(rel));
  auto from_abs = compressor_->Compress(data, ErrorBound::AbsLinf(abs));
  ASSERT_TRUE(from_rel.ok() && from_abs.ok());
  EXPECT_EQ(from_rel->blob, from_abs->blob);
  EXPECT_DOUBLE_EQ(from_rel->resolved_abs_tolerance,
                   from_abs->resolved_abs_tolerance);
}

TEST_P(NormSemanticsTest, RelativeL2EqualsScaledAbsolute) {
  if (!compressor_->SupportsNorm(Norm::kL2)) {
    GTEST_SKIP() << "no L2 mode";
  }
  const Tensor data = testing::SmoothField2d(40, 40, 2);
  const double rel = 1e-3;
  const double abs = rel * tensor::L2Norm(data);
  auto from_rel = compressor_->Compress(data, ErrorBound::RelL2(rel));
  auto from_abs = compressor_->Compress(data, ErrorBound::AbsL2(abs));
  ASSERT_TRUE(from_rel.ok() && from_abs.ok());
  EXPECT_EQ(from_rel->blob, from_abs->blob);
}

TEST_P(NormSemanticsTest, L2BoundImpliesLooserPointwiseControl) {
  // An L2 budget tol allows pointwise errors up to tol (all error in one
  // element) but enforces sum-of-squares <= tol^2. Verify both directions:
  // the L2 norm holds and no element exceeds the budget.
  if (!compressor_->SupportsNorm(Norm::kL2)) {
    GTEST_SKIP() << "no L2 mode";
  }
  const Tensor data = testing::SmoothField2d(64, 64, 3);
  const double tol = 5e-3;
  auto c = compressor_->Compress(data, ErrorBound::AbsL2(tol));
  ASSERT_TRUE(c.ok());
  auto d = compressor_->Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kL2), tol * (1 + 1e-9));
  EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kLinf),
            tol * (1 + 1e-9));
}

TEST_P(NormSemanticsTest, ResolvedToleranceReported) {
  const Tensor data = testing::SmoothField2d(32, 32, 4);
  auto c = compressor_->Compress(data, ErrorBound::RelLinf(1e-3));
  ASSERT_TRUE(c.ok());
  // The resolved absolute tolerance must equal rel * range for Linf.
  EXPECT_NEAR(c->resolved_abs_tolerance,
              1e-3 * tensor::ValueRange(data),
              1e-12 * tensor::ValueRange(data));
}

TEST_P(NormSemanticsTest, TighteningNeverLoosensError) {
  const Tensor data = testing::SmoothField2d(48, 48, 5);
  double prev_err = 1e300;
  for (double tol : {1e-2, 1e-3, 1e-4, 1e-5}) {
    auto c = compressor_->Compress(data, ErrorBound::AbsLinf(tol));
    ASSERT_TRUE(c.ok());
    auto d = compressor_->Decompress(c->blob);
    ASSERT_TRUE(d.ok());
    const double err = tensor::DiffNorm(data, d->data, Norm::kLinf);
    EXPECT_LE(err, prev_err * (1 + 1e-6)) << "tol " << tol;
    prev_err = err;
  }
}

// A tolerance the backend cannot honour is refused before any encoding: a
// NaN, infinite or negative tolerance, and a relative tolerance whose
// resolved bound overflows. 0 stays lossless.
TEST_P(NormSemanticsTest, RejectsToleranceItCannotHonour) {
  const Tensor data = testing::SmoothField2d(16, 16, 6);
  ASSERT_GT(tensor::ValueRange(data), 1.0);  // So max * range overflows.
  const double inf = std::numeric_limits<double>::infinity();
  for (const ErrorBound& bound :
       {ErrorBound::AbsLinf(std::numeric_limits<double>::quiet_NaN()),
        ErrorBound::AbsLinf(inf), ErrorBound::AbsLinf(-inf),
        ErrorBound::AbsLinf(-0.5),
        ErrorBound::RelLinf(std::numeric_limits<double>::max())}) {
    auto c = compressor_->Compress(data, bound);
    ASSERT_FALSE(c.ok()) << bound.tolerance;
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument)
        << bound.tolerance;
  }
  auto lossless = compressor_->Compress(data, ErrorBound::AbsLinf(0.0));
  ASSERT_TRUE(lossless.ok());
  auto d = compressor_->Decompress(lossless->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(tensor::DiffNorm(data, d->data, Norm::kLinf), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, NormSemanticsTest,
    ::testing::Values(Backend::kSz, Backend::kZfp, Backend::kMgard),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(BackendToString(info.param));
    });

}  // namespace
}  // namespace compress
}  // namespace errorflow
