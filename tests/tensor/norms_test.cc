#include "tensor/norms.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "testing/test_util.h"

namespace errorflow {
namespace tensor {
namespace {

TEST(NormsTest, L2KnownValue) {
  EXPECT_DOUBLE_EQ(L2Norm(testing::FromValues({3, 4})), 5.0);
  EXPECT_DOUBLE_EQ(L2Norm(testing::FromValues({0, 0, 0})), 0.0);
}

TEST(NormsTest, LinfKnownValue) {
  EXPECT_DOUBLE_EQ(LinfNorm(testing::FromValues({1, -7, 3})), 7.0);
}

TEST(NormsTest, VectorNormDispatch) {
  Tensor t = testing::FromValues({3, 4});
  EXPECT_DOUBLE_EQ(MaxRowNorm(t.data(), 1, t.size(), Norm::kL2), 5.0);
  EXPECT_DOUBLE_EQ(MaxRowNorm(t.data(), 1, t.size(), Norm::kLinf), 4.0);
}

TEST(NormsTest, DiffNorm) {
  Tensor a = testing::FromValues({1, 2, 3});
  Tensor b = testing::FromValues({1, 4, 3});
  EXPECT_DOUBLE_EQ(DiffNorm(a, b, Norm::kL2), 2.0);
  EXPECT_DOUBLE_EQ(DiffNorm(a, b, Norm::kLinf), 2.0);
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
    EXPECT_EQ(norm == Norm::kL2 ? L2Norm(a) : LinfNorm(a),
              MaxRowNorm(kRowsA, 1, 6, norm));
  }
}

TEST(NormsTest, ZeroRowsMeasureZero) {
  EXPECT_EQ(MaxRowError(kRowsA, kRowsB, 0, 2, Norm::kL2), 0.0);
  EXPECT_EQ(MaxRowNorm(kRowsA, 0, 2, Norm::kLinf), 0.0);
}

// A NaN output is never measured as exact: the running maximum keeps a
// NaN row, whether it comes first (NaN then finite) or later (finite then
// NaN), under both norms.
TEST(NormsTest, NanInFirstRowPropagates) {
  const float out[] = {1.0f, NAN, 3.0f, 4.0f};
  const float ref[] = {1.0f, 2.0f, 3.0f, 4.0f};
  for (Norm norm : {Norm::kL2, Norm::kLinf}) {
    EXPECT_TRUE(std::isnan(MaxRowError(out, ref, 2, 2, norm)));
    EXPECT_TRUE(std::isnan(MaxRowError(ref, out, 2, 2, norm)));
    EXPECT_TRUE(std::isnan(MaxRowNorm(out, 2, 2, norm)));
    // As one row of four.
    EXPECT_TRUE(std::isnan(MaxRowError(out, ref, 1, 4, norm)));
  }
}

TEST(NormsTest, NanInSecondRowPropagates) {
  const float out[] = {1.0f, 2.0f, NAN, 4.0f};
  const float ref[] = {1.0f, 2.0f, 3.0f, 4.0f};
  for (Norm norm : {Norm::kL2, Norm::kLinf}) {
    EXPECT_TRUE(std::isnan(MaxRowError(out, ref, 2, 2, norm)));
    EXPECT_TRUE(std::isnan(MaxRowError(ref, out, 2, 2, norm)));
    EXPECT_TRUE(std::isnan(MaxRowNorm(out, 2, 2, norm)));
  }
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

float FloatFromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// NaN (with payloads, both signs) and +-Inf at every position of a row
// and in every row of a batch, in either operand, with row lengths that
// fill vectors and leave tails: every kernel path returns the portable
// path's bits, NaN payload included.
TEST(NormsTest, SpecialsAtEveryPositionKeepTheirBitsOnEveryPath) {
  const float specials[] = {FloatFromBits(0x7FC0BEEFu),
                            FloatFromBits(0xFFA00001u),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  const std::vector<tensor::KernelPath> paths = SupportedKernelPaths();
  for (const int64_t row_len : {1, 9, 17}) {
    const int64_t rows = 11, n = rows * row_len;
    const Tensor base_a = testing::RandomTensor({n}, 21);
    const Tensor base_b = testing::RandomTensor({n}, 22);
    for (const float special : specials) {
      for (int64_t pos = 0; pos < n; ++pos) {
        for (const int operand : {0, 1, 2}) {  // a, b, or both.
          Tensor a = base_a, b = base_b;
          if (operand != 1) a[pos] = special;
          if (operand != 0) b[pos] = -special;
          std::vector<uint64_t> want;
          for (const tensor::KernelPath path : paths) {
            SetKernelPathForTest(path);
            std::vector<uint64_t> got;
            for (const Norm norm : {Norm::kL2, Norm::kLinf}) {
              got.push_back(Bits(MaxRowError(a.data(), b.data(), rows,
                                             row_len, norm)));
              got.push_back(Bits(MaxRowNorm(a.data(), rows, row_len, norm)));
            }
            if (want.empty()) {
              want = got;
            } else {
              EXPECT_EQ(got, want)
                  << KernelPathName(path) << " row_len " << row_len
                  << " pos " << pos << " operand " << operand;
            }
          }
        }
      }
    }
  }
  SetKernelPathForTest(paths.back());
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

}  // namespace
}  // namespace tensor
}  // namespace errorflow
