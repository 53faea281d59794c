#include "tensor/ops.h"

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace errorflow {
namespace tensor {
namespace {

// Naive reference GEMM for validation.
Tensor NaiveGemm(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t l = 0; l < k; ++l) {
        acc += static_cast<double>(a.at(i, l)) * b.at(l, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// Reference transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& mat) {
  const int64_t m = mat.dim(0), n = mat.dim(1);
  Tensor out({n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out.at(j, i) = mat.at(i, j);
  }
  return out;
}

void ExpectClose(const Tensor& a, const Tensor& b, double tol = 1e-4) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at " << i;
  }
}

TEST(OpsTest, GemmSmallExact) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c;
  Gemm(a, b, &c);
  ExpectClose(c, Tensor({2, 2}, {58, 64, 139, 154}), 0);
}

TEST(OpsTest, GemmMatchesNaiveOnRandom) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Tensor a = testing::RandomTensor({37, 53}, seed);
    const Tensor b = testing::RandomTensor({53, 29}, seed + 100);
    Tensor c;
    Gemm(a, b, &c);
    ExpectClose(c, NaiveGemm(a, b), 1e-3);
  }
}

TEST(OpsTest, GemmBlockBoundarySizes) {
  // Exercise sizes around the 64-wide blocking.
  const Tensor a = testing::RandomTensor({64, 65}, 5);
  const Tensor b = testing::RandomTensor({65, 63}, 6);
  Tensor c;
  Gemm(a, b, &c);
  ExpectClose(c, NaiveGemm(a, b), 1e-3);
}

TEST(OpsTest, GemmNTMatchesGemmWithTranspose) {
  const Tensor a = testing::RandomTensor({10, 20}, 7);
  const Tensor bt = testing::RandomTensor({15, 20}, 8);  // (n, k)
  Tensor c1, c2;
  GemmNT(a, bt, &c1);
  Gemm(a, Transpose(bt), &c2);
  ExpectClose(c1, c2, 1e-4);
}

TEST(OpsTest, GemmTNMatchesGemmWithTranspose) {
  const Tensor at = testing::RandomTensor({20, 10}, 9);  // (k, m)
  const Tensor b = testing::RandomTensor({20, 15}, 10);
  Tensor c1, c2;
  GemmTN(at, b, &c1);
  Gemm(Transpose(at), b, &c2);
  ExpectClose(c1, c2, 1e-4);
}

TEST(OpsTest, GemvMatchesGemm) {
  const Tensor w = testing::RandomTensor({8, 5}, 11);
  const Tensor x = testing::RandomTensor({5}, 12);
  Tensor y;
  Gemv(w, x, &y);
  for (int64_t i = 0; i < 8; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < 5; ++j) acc += static_cast<double>(w.at(i, j)) * x[j];
    EXPECT_NEAR(y[i], acc, 1e-4);
  }
}

TEST(OpsTest, GemvTMatchesTransposedGemv) {
  const Tensor w = testing::RandomTensor({8, 5}, 13);
  const Tensor x = testing::RandomTensor({8}, 14);
  Tensor y1, y2;
  GemvT(w, x, &y1);
  Gemv(Transpose(w), x, &y2);
  ExpectClose(y1, y2, 1e-4);
}

TEST(OpsTest, AddScale) {
  Tensor a = testing::FromValues({1, 2, 3});
  Tensor b = testing::FromValues({10, 20, 30});
  Tensor out;
  Add(a, b, &out);
  ExpectClose(out, testing::FromValues({11, 22, 33}), 0);
  Scale(&out, 0.5f);
  ExpectClose(out, testing::FromValues({5.5, 11, 16.5}), 0);
}

TEST(OpsTest, GemmNTAddsRowBias) {
  // x (2 x 2) times W^T (W is 3 x 2): rows {0, 0, 0} and {1, 1, 1}, then
  // bias {1, 2, 3} on every row.
  const Tensor x({2, 2}, {0, 0, 1, 0});
  const Tensor w({3, 2}, {1, 0, 1, 0, 1, 0});
  const Tensor bias = testing::FromValues({1, 2, 3});
  Tensor y;
  GemmNT(x, w, &y, &bias);
  ExpectClose(y, Tensor({2, 3}, {1, 2, 3, 2, 3, 4}), 0);
}

TEST(OpsTest, GemmAccumulatorResetOnReuse) {
  Tensor a({2, 2}, {1, 0, 0, 1});
  Tensor b({2, 2}, {1, 2, 3, 4});
  Tensor c;
  Gemm(a, b, &c);
  Gemm(a, b, &c);  // Re-using `c` must not accumulate.
  ExpectClose(c, b, 0);
}

}  // namespace
}  // namespace tensor
}  // namespace errorflow
