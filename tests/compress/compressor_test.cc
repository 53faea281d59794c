// Cross-backend property suite: every (backend, norm, tolerance, shape)
// combination must respect its error-bound contract and round-trip its
// metadata. This is the contract Figs. 3/4/7/8 rely on.
#include "compress/compressor.h"

#include <cmath>

#include "gtest/gtest.h"
#include "tensor/norms.h"
#include "tensor/stats.h"
#include "testing/test_util.h"

namespace errorflow {
namespace compress {
namespace {

using tensor::Norm;
using tensor::Tensor;

struct CaseParam {
  Backend backend;
  Norm norm;
  double tolerance;
  bool relative;
};

std::string CaseName(const ::testing::TestParamInfo<CaseParam>& info) {
  const CaseParam& p = info.param;
  std::string name = BackendToString(p.backend);
  name += p.norm == Norm::kL2 ? "_L2" : "_Linf";
  name += p.relative ? "_rel" : "_abs";
  const int exp = static_cast<int>(-std::log10(p.tolerance) + 0.5);
  name += "_1em" + std::to_string(exp);
  return name;
}

class CompressorContractTest : public ::testing::TestWithParam<CaseParam> {};

TEST_P(CompressorContractTest, BoundHoldsOnSmoothField) {
  const CaseParam& p = GetParam();
  auto compressor = MakeCompressor(p.backend);
  if (!compressor->SupportsNorm(p.norm)) {
    GTEST_SKIP() << "backend does not support this norm";
  }
  const Tensor data = testing::SmoothField2d(64, 96, 7);
  ErrorBound bound;
  bound.norm = p.norm;
  bound.relative = p.relative;
  bound.tolerance = p.tolerance;

  auto compressed = compressor->Compress(data, bound);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  auto decompressed = compressor->Decompress(compressed->blob);
  ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();
  ASSERT_EQ(decompressed->data.shape(), data.shape());

  double budget = p.tolerance;
  if (p.relative) {
    budget *= p.norm == Norm::kLinf ? tensor::ValueRange(data)
                                    : tensor::L2Norm(data);
  }
  const double achieved = tensor::DiffNorm(data, decompressed->data, p.norm);
  EXPECT_LE(achieved, budget * (1.0 + 1e-5))
      << "achieved " << achieved << " vs budget " << budget;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsNormsTolerances, CompressorContractTest,
    ::testing::ValuesIn([] {
      std::vector<CaseParam> cases;
      for (Backend b : {Backend::kSz, Backend::kZfp, Backend::kMgard}) {
        for (Norm n : {Norm::kLinf, Norm::kL2}) {
          for (double tol : {1e-2, 1e-3, 1e-4, 1e-6}) {
            for (bool rel : {false, true}) {
              cases.push_back({b, n, tol, rel});
            }
          }
        }
      }
      return cases;
    }()),
    CaseName);

class BackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<Compressor> compressor_ = MakeCompressor(GetParam());
};

TEST_P(BackendTest, SmoothDataCompresses) {
  const Tensor data = testing::SmoothField2d(128, 128, 3);
  auto c = compressor_->Compress(data, ErrorBound::RelLinf(1e-3));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c->ratio(), 2.0) << "ratio " << c->ratio();
  EXPECT_EQ(c->original_bytes, data.size() * 4);
}

TEST_P(BackendTest, TighterToleranceLowerRatio) {
  const Tensor data = testing::SmoothField2d(96, 96, 4);
  auto loose = compressor_->Compress(data, ErrorBound::RelLinf(1e-2));
  auto tight = compressor_->Compress(data, ErrorBound::RelLinf(1e-6));
  ASSERT_TRUE(loose.ok() && tight.ok());
  EXPECT_GT(loose->ratio(), tight->ratio());
}

TEST_P(BackendTest, RandomNoiseStillBounded) {
  // Incompressible data: ratio may collapse but the bound must hold.
  const Tensor data = testing::RandomTensor({40, 40}, 5);
  auto c = compressor_->Compress(data, ErrorBound::AbsLinf(1e-3));
  ASSERT_TRUE(c.ok());
  auto d = compressor_->Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kLinf), 1e-3 * (1 + 1e-6));
}

TEST_P(BackendTest, ConstantFieldNearPerfectRatio) {
  const Tensor data = testing::Full({64, 64}, 3.25f);
  auto c = compressor_->Compress(data, ErrorBound::AbsLinf(1e-4));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c->ratio(), 20.0);
  auto d = compressor_->Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kLinf), 1e-4);
}

TEST_P(BackendTest, ConstantFieldRelativeBoundDegenerates) {
  // Relative Linf on a constant field resolves to eb = 0: lossless.
  const Tensor data = testing::Full({32}, -2.0f);
  auto c = compressor_->Compress(data, ErrorBound::RelLinf(1e-3));
  ASSERT_TRUE(c.ok());
  auto d = compressor_->Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  for (int64_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(d->data[i], data[i]);
  }
}

TEST_P(BackendTest, Rank1And3Supported) {
  for (const tensor::Shape& shape :
       {tensor::Shape{1000}, tensor::Shape{8, 16, 16}}) {
    Tensor data(shape);
    for (int64_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
    }
    auto c = compressor_->Compress(data, ErrorBound::AbsLinf(1e-4));
    ASSERT_TRUE(c.ok());
    auto d = compressor_->Decompress(c->blob);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->data.shape(), shape);
    EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kLinf),
              1e-4 * (1 + 1e-6));
  }
}

TEST_P(BackendTest, TinyTensors) {
  for (int64_t n : {1, 2, 3, 5}) {
    Tensor data({n});
    for (int64_t i = 0; i < n; ++i) data[i] = static_cast<float>(i) * 0.5f;
    auto c = compressor_->Compress(data, ErrorBound::AbsLinf(1e-5));
    ASSERT_TRUE(c.ok()) << n;
    auto d = compressor_->Decompress(c->blob);
    ASSERT_TRUE(d.ok()) << n;
    EXPECT_LE(tensor::DiffNorm(data, d->data, Norm::kLinf),
              1e-5 * (1 + 1e-6));
  }
}

TEST_P(BackendTest, EmptyTensorRejected) {
  EXPECT_FALSE(compressor_->Compress(Tensor(), ErrorBound::AbsLinf(1e-3))
                   .ok());
}

TEST_P(BackendTest, GarbageBlobRejected) {
  EXPECT_FALSE(compressor_->Decompress("not a blob").ok());
  EXPECT_FALSE(compressor_->Decompress("").ok());
}

TEST_P(BackendTest, TruncatedBlobRejected) {
  const Tensor data = testing::SmoothField2d(32, 32, 6);
  auto c = compressor_->Compress(data, ErrorBound::AbsLinf(1e-3));
  ASSERT_TRUE(c.ok());
  std::string blob = c->blob;
  blob.resize(blob.size() / 3);
  EXPECT_FALSE(compressor_->Decompress(blob).ok());
}

TEST_P(BackendTest, DeterministicBlob) {
  const Tensor data = testing::SmoothField2d(48, 48, 8);
  auto a = compressor_->Compress(data, ErrorBound::AbsLinf(1e-4));
  auto b = compressor_->Compress(data, ErrorBound::AbsLinf(1e-4));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->blob, b->blob);
}

TEST_P(BackendTest, ReportsTimings) {
  const Tensor data = testing::SmoothField2d(64, 64, 9);
  auto c = compressor_->Compress(data, ErrorBound::AbsLinf(1e-4));
  ASSERT_TRUE(c.ok());
  EXPECT_GE(c->seconds, 0.0);
  auto d = compressor_->Decompress(c->blob);
  ASSERT_TRUE(d.ok());
  EXPECT_GE(d->seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, BackendTest,
    ::testing::Values(Backend::kSz, Backend::kZfp, Backend::kMgard),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(BackendToString(info.param));
    });

TEST(RegistryTest, NamesAndFactory) {
  EXPECT_EQ(MakeCompressor(Backend::kSz)->name(), "sz");
  EXPECT_EQ(MakeCompressor(Backend::kZfp)->name(), "zfp");
  EXPECT_EQ(MakeCompressor(Backend::kMgard)->name(), "mgard");
  EXPECT_EQ(AllBackends().size(), 3u);
}

TEST(RegistryTest, ZfpRejectsL2AsInPaper) {
  auto zfp = MakeCompressor(Backend::kZfp);
  EXPECT_FALSE(zfp->SupportsNorm(Norm::kL2));
  const Tensor data = testing::SmoothField2d(16, 16, 10);
  auto r = zfp->Compress(data, ErrorBound::AbsL2(1e-3));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
}

TEST(RegistryTest, SzAndMgardSupportBothNorms) {
  EXPECT_TRUE(MakeCompressor(Backend::kSz)->SupportsNorm(Norm::kL2));
  EXPECT_TRUE(MakeCompressor(Backend::kSz)->SupportsNorm(Norm::kLinf));
  EXPECT_TRUE(MakeCompressor(Backend::kMgard)->SupportsNorm(Norm::kL2));
  EXPECT_TRUE(MakeCompressor(Backend::kMgard)->SupportsNorm(Norm::kLinf));
}

}  // namespace
}  // namespace compress
}  // namespace errorflow
