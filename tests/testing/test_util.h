#ifndef ERRORFLOW_TESTS_TESTING_TEST_UTIL_H_
#define ERRORFLOW_TESTS_TESTING_TEST_UTIL_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace errorflow {
namespace testing {

/// True when `json` holds a raw byte below 0x20 other than the newlines
/// exporters put between entries. Inside a string literal such a byte makes
/// the document invalid JSON.
inline bool HasRawControlByte(const std::string& json) {
  return std::any_of(json.begin(), json.end(), [](char c) {
    return c != '\n' && static_cast<unsigned char>(c) < 0x20;
  });
}

/// Runs `body` once on every kernel path this host supports, narrowest
/// first, under a SCOPED_TRACE naming the path, then restores the default
/// path. Every path must produce the same bits (tensor::KernelPath).
inline void ForEachKernelPath(const std::function<void()>& body) {
  const std::vector<tensor::KernelPath> paths = tensor::SupportedKernelPaths();
  for (const tensor::KernelPath path : paths) {
    SCOPED_TRACE(std::string("kernel path ") + tensor::KernelPathName(path));
    tensor::SetKernelPathForTest(path);
    body();
  }
  tensor::SetKernelPathForTest(paths.back());
}

/// 1-D tensor holding `values`.
inline tensor::Tensor FromValues(std::initializer_list<float> values) {
  return tensor::Tensor({static_cast<int64_t>(values.size())},
                        std::vector<float>(values));
}

/// Tensor of `shape` with every element `value`.
inline tensor::Tensor Full(tensor::Shape shape, float value) {
  tensor::Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

/// Random tensor with iid normal entries.
inline tensor::Tensor RandomTensor(tensor::Shape shape, uint64_t seed,
                                   double stddev = 1.0) {
  util::Rng rng(seed);
  tensor::Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return t;
}

/// Random tensor with entries uniform in [lo, hi].
inline tensor::Tensor RandomUniformTensor(tensor::Shape shape, uint64_t seed,
                                          double lo = -1.0, double hi = 1.0) {
  util::Rng rng(seed);
  tensor::Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

/// Smooth 2-D field (sum of low-frequency sinusoids): compressible data for
/// compressor tests.
inline tensor::Tensor SmoothField2d(int64_t rows, int64_t cols,
                                    uint64_t seed) {
  util::Rng rng(seed);
  const double a1 = rng.Uniform(0.5, 1.5), a2 = rng.Uniform(0.2, 0.8);
  const double p1 = rng.Uniform(0, 6.28), p2 = rng.Uniform(0, 6.28);
  tensor::Tensor t({rows, cols});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const double x = static_cast<double>(j) / cols;
      const double y = static_cast<double>(i) / rows;
      t.at(i, j) = static_cast<float>(
          a1 * std::sin(2 * M_PI * x + p1) * std::cos(2 * M_PI * y) +
          a2 * std::sin(6 * M_PI * (x + y) + p2));
    }
  }
  return t;
}

/// Central-difference gradient check: compares an analytic gradient of a
/// scalar function with finite differences at every coordinate of `x`.
/// `f` evaluates the scalar; `analytic` is d f / d x_i.
inline void ExpectGradientsClose(
    const std::function<double(const tensor::Tensor&)>& f,
    const tensor::Tensor& x, const tensor::Tensor& analytic,
    double rel_tol = 1e-2, double abs_tol = 1e-4) {
  ASSERT_EQ(x.size(), analytic.size());
  const double eps = 1e-3;
  for (int64_t i = 0; i < x.size(); ++i) {
    tensor::Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const double numeric = (f(xp) - f(xm)) / (2 * eps);
    const double a = analytic[i];
    const double tol = abs_tol + rel_tol * std::max(std::fabs(numeric),
                                                    std::fabs(a));
    EXPECT_NEAR(a, numeric, tol) << "coordinate " << i;
  }
}

/// FNV-1a over the bytes of a tensor's values, for pinning outputs bit
/// for bit.
inline uint64_t Digest(const tensor::Tensor& t) {
  uint64_t h = 1469598103934665603ull;
  for (int64_t i = 0; i < t.size(); ++i) {
    const uint32_t bits = std::bit_cast<uint32_t>(t[i]);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace testing
}  // namespace errorflow

#endif  // ERRORFLOW_TESTS_TESTING_TEST_UTIL_H_
