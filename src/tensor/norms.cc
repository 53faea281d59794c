#include "tensor/norms.h"

#include <algorithm>
#include <cmath>

namespace errorflow {
namespace tensor {

double L2Norm(const Tensor& t) {
  return MaxRowNorm(t.data(), 1, t.size(), Norm::kL2);
}

double LinfNorm(const Tensor& t) {
  return MaxRowNorm(t.data(), 1, t.size(), Norm::kLinf);
}

double DiffNorm(const Tensor& a, const Tensor& b, Norm norm) {
  EF_CHECK(a.size() == b.size());
  return MaxRowError(a.data(), b.data(), 1, a.size(), norm);
}

double MaxRowError(const float* a, const float* b, int64_t rows,
                   int64_t row_len, Norm norm) {
  // std::max drops a NaN term, so `nan_probe` sums every term instead: the
  // terms are >= 0 unless NaN, so the sum is NaN exactly when one was.
  double worst = 0.0, nan_probe = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    const float* ar = a + r * row_len;
    const float* br = b + r * row_len;
    if (norm == Norm::kL2) {
      double acc = 0.0;
      for (int64_t i = 0; i < row_len; ++i) {
        const double d = static_cast<double>(ar[i]) - br[i];
        acc += d * d;
      }
      worst = std::max(worst, std::sqrt(acc));
      nan_probe += acc;
    } else {
      for (int64_t i = 0; i < row_len; ++i) {
        const double d = std::fabs(static_cast<double>(ar[i]) - br[i]);
        worst = std::max(worst, d);
        nan_probe += d;
      }
    }
  }
  return std::isnan(nan_probe) ? nan_probe : worst;
}

double MaxRowNorm(const float* a, int64_t rows, int64_t row_len, Norm norm) {
  double worst = 0.0, nan_probe = 0.0;  // As in MaxRowError.
  for (int64_t r = 0; r < rows; ++r) {
    const float* ar = a + r * row_len;
    if (norm == Norm::kL2) {
      double acc = 0.0;
      for (int64_t i = 0; i < row_len; ++i) {
        acc += static_cast<double>(ar[i]) * ar[i];
      }
      worst = std::max(worst, std::sqrt(acc));
      nan_probe += acc;
    } else {
      for (int64_t i = 0; i < row_len; ++i) {
        const double v = std::fabs(static_cast<double>(ar[i]));
        worst = std::max(worst, v);
        nan_probe += v;
      }
    }
  }
  return std::isnan(nan_probe) ? nan_probe : worst;
}

}  // namespace tensor
}  // namespace errorflow
