#include "compress/bound_util.h"

#include <algorithm>
#include <cmath>

#include "tensor/stats.h"

namespace errorflow {
namespace compress {

Result<double> ResolveAbsoluteBound(const Tensor& data,
                                    const ErrorBound& bound) {
  if (!(std::isfinite(bound.tolerance) && bound.tolerance >= 0.0)) {
    return Status::InvalidArgument(
        "error bound tolerance must be finite and >= 0");
  }
  double abs = bound.tolerance;
  if (bound.relative) {
    abs *= bound.norm == Norm::kLinf ? tensor::ValueRange(data)
                                     : tensor::L2Norm(data);
  }
  if (!std::isfinite(abs)) {
    return Status::InvalidArgument("resolved error bound is not finite");
  }
  return abs;
}

Status ValidateBlobShape(const tensor::Shape& shape, size_t blob_bytes,
                         const util::DecodeLimits& limits) {
  constexpr int64_t kMaxDim = 1ll << 28;
  // Generous plausibility cap: no real blob compresses floats beyond
  // ~32768:1 (8192 elements per byte).
  const uint64_t plausible = std::min<uint64_t>(
      limits.max_elements, (static_cast<uint64_t>(blob_bytes) + 64) * 8192);
  uint64_t n = 1;
  for (int64_t d : shape) {
    if (d <= 0 || d > kMaxDim) {
      return Status::Corruption("blob shape dimension out of range");
    }
    if (!util::CheckedMul(n, static_cast<uint64_t>(d), &n) ||
        n > limits.max_elements) {
      return Status::Corruption("blob shape element count overflow");
    }
  }
  if (n > plausible) {
    return Status::Corruption("blob shape implausibly large for payload");
  }
  return Status::OK();
}

void CollapseTo3d(const tensor::Shape& shape, int64_t* slices, int64_t* rows,
                  int64_t* cols) {
  if (shape.empty()) {
    *slices = 1;
    *rows = 1;
    *cols = 1;
    return;
  }
  if (shape.size() == 1) {
    *slices = 1;
    *rows = 1;
    *cols = shape[0];
    return;
  }
  if (shape.size() == 2) {
    *slices = 1;
    *rows = shape[0];
    *cols = shape[1];
    return;
  }
  int64_t lead = 1;
  for (size_t i = 0; i + 2 < shape.size(); ++i) lead *= shape[i];
  *slices = lead;
  *rows = shape[shape.size() - 2];
  *cols = shape[shape.size() - 1];
}

}  // namespace compress
}  // namespace errorflow
