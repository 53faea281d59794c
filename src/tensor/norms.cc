#include "tensor/norms.h"

#include <algorithm>
#include <cmath>

namespace errorflow {
namespace tensor {

const char* NormToString(Norm norm) {
  return norm == Norm::kL2 ? "L2" : "Linf";
}

double L2Norm(const Tensor& t) {
  return MaxRowNorm(t.data(), 1, t.size(), Norm::kL2);
}

double LinfNorm(const Tensor& t) {
  return MaxRowNorm(t.data(), 1, t.size(), Norm::kLinf);
}

double VectorNorm(const Tensor& t, Norm norm) {
  return MaxRowNorm(t.data(), 1, t.size(), norm);
}

double DiffNorm(const Tensor& a, const Tensor& b, Norm norm) {
  EF_CHECK(a.size() == b.size());
  return MaxRowError(a.data(), b.data(), 1, a.size(), norm);
}

double RelativeError(const Tensor& reference, const Tensor& approx,
                     Norm norm) {
  const double denom = VectorNorm(reference, norm);
  const double err = DiffNorm(reference, approx, norm);
  if (denom <= 0.0) return err;
  return err / denom;
}

double MaxRowError(const float* a, const float* b, int64_t rows,
                   int64_t row_len, Norm norm) {
  double worst = 0.0;
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
    } else {
      for (int64_t i = 0; i < row_len; ++i) {
        worst = std::max(worst, std::fabs(static_cast<double>(ar[i]) - br[i]));
      }
    }
  }
  return worst;
}

double MaxRowNorm(const float* a, int64_t rows, int64_t row_len, Norm norm) {
  double worst = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    const float* ar = a + r * row_len;
    if (norm == Norm::kL2) {
      double acc = 0.0;
      for (int64_t i = 0; i < row_len; ++i) {
        acc += static_cast<double>(ar[i]) * ar[i];
      }
      worst = std::max(worst, std::sqrt(acc));
    } else {
      for (int64_t i = 0; i < row_len; ++i) {
        worst = std::max(worst, std::fabs(static_cast<double>(ar[i])));
      }
    }
  }
  return worst;
}

double ConvertNormBound(double bound, Norm from, Norm to, int64_t n) {
  if (from == to) return bound;
  if (from == Norm::kL2 && to == Norm::kLinf) {
    return bound;  // ||v||_inf <= ||v||_2.
  }
  // Linf -> L2: ||v||_2 <= sqrt(n) * ||v||_inf.
  return bound * std::sqrt(static_cast<double>(n));
}

}  // namespace tensor
}  // namespace errorflow
