#ifndef ERRORFLOW_COMPRESS_BOUND_UTIL_H_
#define ERRORFLOW_COMPRESS_BOUND_UTIL_H_

#include "compress/compressor.h"
#include "util/bytes.h"

namespace errorflow {
namespace compress {

/// \brief Resolves an ErrorBound into an absolute bound in its own norm:
/// per element for Linf, total for L2.
///
///   absolute: tol
///   relative: tol * (max - min) for Linf (SZ convention), tol * ||x||2 for L2
///
/// The one place every backend's Compress checks what it is asked to
/// honour: InvalidArgument when `tolerance` is NaN, infinite or negative,
/// or when the resolved bound is not finite. A tolerance of 0, and a
/// constant field under a relative bound, resolve to 0, which backends
/// treat as lossless.
Result<double> ResolveAbsoluteBound(const Tensor& data,
                                    const ErrorBound& bound);

/// \brief Validates a tensor shape read from an untrusted blob before any
/// allocation: positive bounded dims, a checked (per-dimension) element
/// product under `limits.max_elements`, and a total element count plausible
/// for `blob_bytes` of compressed payload (corrupted headers otherwise
/// trigger multi-GB allocations). Returns Corruption on violation.
Status ValidateBlobShape(
    const tensor::Shape& shape, size_t blob_bytes,
    const util::DecodeLimits& limits = util::DecodeLimits::Default());

/// \brief Collapses an arbitrary-rank shape into the (slices, rows, cols)
/// 3-D view used by dimension-aware predictors: rank 1 -> (1, 1, n),
/// rank 2 -> (1, r, c), rank 3 -> as-is, rank > 3 -> leading dims merged
/// into slices.
void CollapseTo3d(const tensor::Shape& shape, int64_t* slices, int64_t* rows,
                  int64_t* cols);

}  // namespace compress
}  // namespace errorflow

#endif  // ERRORFLOW_COMPRESS_BOUND_UTIL_H_
