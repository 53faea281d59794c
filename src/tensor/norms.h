#ifndef ERRORFLOW_TENSOR_NORMS_H_
#define ERRORFLOW_TENSOR_NORMS_H_

#include "tensor/tensor.h"

namespace errorflow {
namespace tensor {

/// \brief Which vector norm an error bound or tolerance is expressed in.
///
/// The paper reports every result in both norms; they are related by
/// (1/sqrt(n)) * ||v||_2 <= ||v||_inf <= ||v||_2 (Sec. III-A).
enum class Norm {
  kL2,
  kLinf,
};

/// Euclidean norm of all elements.
double L2Norm(const Tensor& t);

/// Max-magnitude norm of all elements.
double LinfNorm(const Tensor& t);

/// ||a - b|| in the given norm; shapes must match.
double DiffNorm(const Tensor& a, const Tensor& b, Norm norm);

/// Largest per-row ||a_r - b_r|| over `rows` contiguous rows of `row_len`
/// elements each: the achieved per-sample error of a batch whose rows are
/// samples. Differences are taken in double. Zero when `rows` is 0; NaN
/// when any row's norm is NaN, so a NaN output is never measured as exact.
double MaxRowError(const float* a, const float* b, int64_t rows,
                   int64_t row_len, Norm norm);

/// Largest per-row ||a_r|| over `rows` contiguous rows of `row_len`
/// elements each (the reference norm behind per-sample relative errors).
/// NaN propagates as in MaxRowError.
double MaxRowNorm(const float* a, int64_t rows, int64_t row_len, Norm norm);

}  // namespace tensor
}  // namespace errorflow

#endif  // ERRORFLOW_TENSOR_NORMS_H_
