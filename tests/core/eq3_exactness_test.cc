// Hand-computed exactness checks of the printed Inequality (3): a network
// with diagonal weights whose spectral norms, step sizes, and bound terms
// are all known in closed form. The profiled sigma comes from a float
// power iteration, so it matches the exact norm only to float precision;
// the bound terms are checked against the profiled sigma.
#include <cfloat>
#include <cmath>
#include <string>

#include "core/error_bound.h"
#include "gtest/gtest.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "testing/eq3_reference.h"

namespace errorflow {
namespace core {
namespace {

using quant::NumericFormat;
using tensor::Norm;
using tensor::Tensor;

// Builds a two-layer linear model with constant-magnitude weights:
//   W1 = a * I (3x3), W2 = b * I (3x3)
// so sigma_1 = a, sigma_2 = b, and every Table-I float step is
// q = 2^-m * 2^floor(log2 w) exactly.
nn::Model DiagonalModel(float a, float b) {
  nn::Model m("diag");
  auto d1 = std::make_unique<nn::DenseLayer>(3, 3);
  d1->mutable_weight() = Tensor({3, 3}, {a, 0, 0, 0, a, 0, 0, 0, a});
  auto d2 = std::make_unique<nn::DenseLayer>(3, 3);
  d2->mutable_weight() = Tensor({3, 3}, {b, 0, 0, 0, b, 0, 0, 0, b});
  m.Add(std::move(d1));
  m.Add(std::move(d2));
  return m;
}

// The profiled sigma of body layer `l`, checked against the exact operator
// norm to the relative precision of a float.
double ProfiledSigma(const ErrorFlowAnalysis& analysis, size_t l,
                     double exact) {
  const double sigma = analysis.profile().blocks[0].body[l].sigma;
  EXPECT_NEAR(sigma, exact, exact * FLT_EPSILON) << "layer " << l;
  return sigma;
}

TEST(Eq3ExactnessTest, CompressionTermIsSigmaProduct) {
  nn::Model m = DiagonalModel(2.0f, 0.5f);
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 3}));
  // MLP: sigma_s = 0; gain = sigma_1 * sigma_2 (= 2.0 * 0.5 = 1 exactly).
  const double gain =
      ProfiledSigma(analysis, 0, 2.0) * ProfiledSigma(analysis, 1, 0.5);
  EXPECT_DOUBLE_EQ(analysis.Gain(), gain);
  EXPECT_DOUBLE_EQ(testing::Eq3BoundL2(analysis, 1e-3, NumericFormat::kFP32),
                   gain * 1e-3);
}

TEST(Eq3ExactnessTest, QuantTermMatchesHandComputation) {
  // Weights exactly 1.0 and 2.0: zero entries contribute no step, so the
  // RMS step of a diagonal 3x3 with value w is
  //   q = 2^-10 * sqrt(3 * (2^floor(log2 w))^2 / 9) = 2^-10 * w' / sqrt 3
  // with w' = 2^floor(log2 w).
  const float a = 1.0f, b = 2.0f;
  nn::Model m = DiagonalModel(a, b);
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 3}));

  const double q1 = std::exp2(-10.0) * 1.0 / std::sqrt(3.0);
  const double q2 = std::exp2(-10.0) * 2.0 / std::sqrt(3.0);
  const double sigma1 = ProfiledSigma(analysis, 0, a);
  const double sigma2 = ProfiledSigma(analysis, 1, b);
  // Eq. (3), n0 = n1 = n2 = 3, sigma_1 = 1, sigma_2 = 2, C = 1 (no acts):
  //   term(l=1) = sigma_2 * q1 * sqrt(3*3)/(2 sqrt 3)
  //   term(l=2) = (sigma_1 + q1*sqrt(3)/sqrt(3)) * q2 * sqrt(9)/(2 sqrt 3)
  const double t1 = sigma2 * q1 * 3.0 / (2.0 * std::sqrt(3.0));
  const double t2 = (sigma1 + q1) * q2 * 3.0 / (2.0 * std::sqrt(3.0));
  EXPECT_NEAR(testing::Eq3BoundL2(analysis, 0.0, NumericFormat::kFP16),
              t1 + t2, 1e-12);
}

TEST(Eq3ExactnessTest, InputTermAndQuantTermCompose) {
  nn::Model m = DiagonalModel(1.0f, 1.0f);
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 3}));
  const double quant_only =
      testing::Eq3BoundL2(analysis, 0.0, NumericFormat::kBF16);
  const double with_input =
      testing::Eq3BoundL2(analysis, 1e-2, NumericFormat::kBF16);
  // The printed Eq. 3 multiplies the input error by the plain-sigma gain
  // (sigma_1 * sigma_2 = 1 up to the float sigma), not the sigma~ one.
  const double gain =
      ProfiledSigma(analysis, 0, 1.0) * ProfiledSigma(analysis, 1, 1.0);
  EXPECT_DOUBLE_EQ(analysis.Gain(), gain);
  EXPECT_NEAR(with_input - quant_only, gain * 1e-2, 1e-12);
}

TEST(Eq3ExactnessTest, RecursionEqualsEq3ForSingleLayer) {
  nn::Model m("single");
  auto d = std::make_unique<nn::DenseLayer>(3, 3);
  d->mutable_weight() =
      Tensor({3, 3}, {1.5f, 0, 0, 0, 1.5f, 0, 0, 0, 1.5f});
  m.Add(std::move(d));
  ErrorFlowAnalysis analysis(ProfileModel(m, {1, 3}));
  for (NumericFormat fmt :
       {NumericFormat::kFP32, NumericFormat::kFP16, NumericFormat::kINT8}) {
    for (double e : {0.0, 1e-4, 1e-1}) {
      // With one layer there are no downstream products, so the two differ
      // only in the input gain: the recursion's Gain(format) uses sigma~,
      // the printed formula plain sigma. Equal for FP32 and at e = 0; above
      // by exactly (Gain(format) - Gain()) * e for reduced formats.
      SCOPED_TRACE(std::string(quant::FormatToString(fmt)) +
                   " e=" + std::to_string(e));
      const double recursion = analysis.Bound(e, Norm::kL2, fmt);
      const double printed = testing::Eq3BoundL2(analysis, e, fmt);
      EXPECT_NEAR(recursion - printed,
                  (analysis.Gain(fmt) - analysis.Gain()) * e, 1e-12);
      if (fmt != NumericFormat::kFP32 && e > 0.0) {
        EXPECT_GT(recursion, printed);
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace errorflow
