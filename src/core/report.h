#ifndef ERRORFLOW_CORE_REPORT_H_
#define ERRORFLOW_CORE_REPORT_H_

#include <string>

#include "core/error_bound.h"

namespace errorflow {
namespace core {

/// \brief Human-readable multi-line report of a model's error-flow
/// profile: per-layer spectral norms, dims, Table-I step sizes, the
/// per-format quantization bounds, and the compression gain. Used by the
/// CLI and handy in notebooks/logs.
std::string ProfileReport(const ErrorFlowAnalysis& analysis);

/// \brief Per-layer breakdown of the quantization term for one format:
/// each layer's marginal contribution, QuantTerm(all layers quantized) -
/// QuantTerm(that layer kept FP32). The rows sum to approximately
/// QuantTerm(format) (exactly, up to the small sigma~ coupling between
/// layers). Useful for deciding which layers to keep at higher precision.
struct LayerContribution {
  std::string layer;
  double step_size = 0.0;
  double contribution = 0.0;
};

std::vector<LayerContribution> QuantTermBreakdown(
    const ErrorFlowAnalysis& analysis, NumericFormat format);

}  // namespace core
}  // namespace errorflow

#endif  // ERRORFLOW_CORE_REPORT_H_
