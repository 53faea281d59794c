#include "tensor/norms.h"

#include <cmath>

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace errorflow {
namespace tensor {
namespace {

TEST(NormsTest, L2KnownValue) {
  EXPECT_DOUBLE_EQ(L2Norm(Tensor::FromValues({3, 4})), 5.0);
  EXPECT_DOUBLE_EQ(L2Norm(Tensor::FromValues({0, 0, 0})), 0.0);
}

TEST(NormsTest, LinfKnownValue) {
  EXPECT_DOUBLE_EQ(LinfNorm(Tensor::FromValues({1, -7, 3})), 7.0);
}

TEST(NormsTest, VectorNormDispatch) {
  Tensor t = Tensor::FromValues({3, 4});
  EXPECT_DOUBLE_EQ(VectorNorm(t, Norm::kL2), 5.0);
  EXPECT_DOUBLE_EQ(VectorNorm(t, Norm::kLinf), 4.0);
}

TEST(NormsTest, DiffNorm) {
  Tensor a = Tensor::FromValues({1, 2, 3});
  Tensor b = Tensor::FromValues({1, 4, 3});
  EXPECT_DOUBLE_EQ(DiffNorm(a, b, Norm::kL2), 2.0);
  EXPECT_DOUBLE_EQ(DiffNorm(a, b, Norm::kLinf), 2.0);
}

TEST(NormsTest, RelativeError) {
  Tensor ref = Tensor::FromValues({3, 4});
  Tensor approx = Tensor::FromValues({3, 4.5});
  EXPECT_DOUBLE_EQ(RelativeError(ref, approx, Norm::kL2), 0.1);
}

TEST(NormsTest, RelativeErrorZeroReferenceFallsBackToAbsolute) {
  Tensor ref = Tensor::FromValues({0, 0});
  Tensor approx = Tensor::FromValues({0, 0.5});
  EXPECT_DOUBLE_EQ(RelativeError(ref, approx, Norm::kLinf), 0.5);
}

// Three rows of two. Row differences: (3, 4), (0, -4.5) and (-0 - +0, 0),
// so the L2 maximum (5) and the Linf maximum (4.5) come from different
// rows, and neither equals the whole-buffer norm.
constexpr float kRowsA[] = {3.0f, 4.0f, 1.0f, -4.5f, -0.0f, 0.5f};
constexpr float kRowsB[] = {0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 0.5f};

TEST(NormsTest, MaxRowErrorTakesWorstRow) {
  EXPECT_EQ(MaxRowError(kRowsA, kRowsB, 3, 2, Norm::kL2), 5.0);
  EXPECT_EQ(MaxRowError(kRowsA, kRowsB, 3, 2, Norm::kLinf), 4.5);
  // Symmetric in its operands.
  EXPECT_EQ(MaxRowError(kRowsB, kRowsA, 3, 2, Norm::kL2), 5.0);
  EXPECT_EQ(MaxRowError(kRowsB, kRowsA, 3, 2, Norm::kLinf), 4.5);
}

TEST(NormsTest, MaxRowNormTakesWorstRow) {
  // Row norms: L2 5, sqrt(21.25), 0.5; Linf 4, 4.5, 0.5.
  EXPECT_EQ(MaxRowNorm(kRowsA, 3, 2, Norm::kL2), 5.0);
  EXPECT_EQ(MaxRowNorm(kRowsA, 3, 2, Norm::kLinf), 4.5);
}

TEST(NormsTest, MaxRowErrorOfSignedZerosIsPositiveZero) {
  const float neg[] = {-0.0f, -0.0f};
  const float pos[] = {0.0f, 0.0f};
  for (Norm norm : {Norm::kL2, Norm::kLinf}) {
    const double err = MaxRowError(neg, pos, 2, 1, norm);
    EXPECT_EQ(err, 0.0);
    EXPECT_FALSE(std::signbit(err));
    EXPECT_FALSE(std::signbit(MaxRowNorm(neg, 2, 1, norm)));
  }
}

TEST(NormsTest, OneRowIsTheWholeBufferNorm) {
  EXPECT_DOUBLE_EQ(MaxRowError(kRowsA, kRowsB, 1, 6, Norm::kL2),
                   std::sqrt(45.25));
  EXPECT_EQ(MaxRowError(kRowsA, kRowsB, 1, 6, Norm::kLinf), 4.5);
  EXPECT_DOUBLE_EQ(MaxRowNorm(kRowsA, 1, 6, Norm::kL2), std::sqrt(46.5));
  EXPECT_EQ(MaxRowNorm(kRowsA, 1, 6, Norm::kLinf), 4.5);
  // The whole-tensor norms are the one-row case.
  const Tensor a({6}, {3.0f, 4.0f, 1.0f, -4.5f, -0.0f, 0.5f});
  const Tensor b({6}, {0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 0.5f});
  for (Norm norm : {Norm::kL2, Norm::kLinf}) {
    EXPECT_EQ(DiffNorm(a, b, norm), MaxRowError(kRowsA, kRowsB, 1, 6, norm));
    EXPECT_EQ(VectorNorm(a, norm), MaxRowNorm(kRowsA, 1, 6, norm));
  }
}

TEST(NormsTest, ZeroRowsMeasureZero) {
  EXPECT_EQ(MaxRowError(kRowsA, kRowsB, 0, 2, Norm::kL2), 0.0);
  EXPECT_EQ(MaxRowNorm(kRowsA, 0, 2, Norm::kLinf), 0.0);
}

// Property (Sec. III-A): (1/sqrt(n)) ||v||_2 <= ||v||_inf <= ||v||_2.
TEST(NormsTest, NormEquivalenceProperty) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Tensor v = testing::RandomTensor({97}, seed);
    const double l2 = L2Norm(v), linf = LinfNorm(v);
    EXPECT_LE(linf, l2 + 1e-9);
    EXPECT_GE(linf, l2 / std::sqrt(97.0) - 1e-9);
  }
}

TEST(NormsTest, ConvertNormBoundSameNormIsIdentity) {
  EXPECT_DOUBLE_EQ(ConvertNormBound(0.5, Norm::kL2, Norm::kL2, 10), 0.5);
}

TEST(NormsTest, ConvertL2ToLinfKeepsValue) {
  EXPECT_DOUBLE_EQ(ConvertNormBound(0.5, Norm::kL2, Norm::kLinf, 10), 0.5);
}

TEST(NormsTest, ConvertLinfToL2ScalesBySqrtN) {
  EXPECT_DOUBLE_EQ(ConvertNormBound(0.5, Norm::kLinf, Norm::kL2, 16), 2.0);
}

// Converted bounds must remain valid bounds.
TEST(NormsTest, ConvertedBoundsAreValid) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Tensor v = testing::RandomTensor({64}, seed);
    const double linf = LinfNorm(v);
    const double l2_bound =
        ConvertNormBound(linf, Norm::kLinf, Norm::kL2, 64);
    EXPECT_GE(l2_bound + 1e-9, L2Norm(v));
  }
}

TEST(NormsTest, NormToString) {
  EXPECT_STREQ(NormToString(Norm::kL2), "L2");
  EXPECT_STREQ(NormToString(Norm::kLinf), "Linf");
}

}  // namespace
}  // namespace tensor
}  // namespace errorflow
