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

/// Human-readable norm name ("L2" / "Linf").
const char* NormToString(Norm norm);

/// Euclidean norm of all elements.
double L2Norm(const Tensor& t);

/// Max-magnitude norm of all elements.
double LinfNorm(const Tensor& t);

/// Norm dispatch.
double VectorNorm(const Tensor& t, Norm norm);

/// ||a - b|| in the given norm; shapes must match.
double DiffNorm(const Tensor& a, const Tensor& b, Norm norm);

/// Relative error ||a - b|| / ||a|| in the given norm. Returns the absolute
/// error when ||a|| underflows to zero.
double RelativeError(const Tensor& reference, const Tensor& approx,
                     Norm norm);

/// Largest per-row ||a_r - b_r|| over `rows` contiguous rows of `row_len`
/// elements each: the achieved per-sample error of a batch whose rows are
/// samples. Differences are taken in double. Zero when `rows` is 0.
double MaxRowError(const float* a, const float* b, int64_t rows,
                   int64_t row_len, Norm norm);

/// Largest per-row ||a_r|| over `rows` contiguous rows of `row_len`
/// elements each (the reference norm behind per-sample relative errors).
double MaxRowNorm(const float* a, int64_t rows, int64_t row_len, Norm norm);

/// Converts an upper bound expressed in `from` into a valid upper bound in
/// `to` for vectors of `n` elements, using the norm-equivalence
/// inequalities. E.g. an L2 bound is itself a valid Linf bound; an Linf
/// bound b implies an L2 bound of sqrt(n) * b.
double ConvertNormBound(double bound, Norm from, Norm to, int64_t n);

}  // namespace tensor
}  // namespace errorflow

#endif  // ERRORFLOW_TENSOR_NORMS_H_
