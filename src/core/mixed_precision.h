#ifndef ERRORFLOW_CORE_MIXED_PRECISION_H_
#define ERRORFLOW_CORE_MIXED_PRECISION_H_

#include <vector>

#include "core/error_bound.h"

namespace errorflow {
namespace core {

/// \brief A per-layer format assignment, in error-flow traversal order
/// (plain chains in order; residual blocks body-then-shortcut;
/// materialize it with quant::VariantSpec::layer_formats) — the
/// "significantly larger optimization space" the paper's Sec. IV-D points
/// at for future work.
struct MixedPrecisionPlan {
  std::vector<NumericFormat> formats;
  /// Predicted quantization-only QoI bound under this assignment.
  double quant_bound = 0.0;
  /// FLOPs-weighted execution speedup over all-FP32 on the modeled GPU.
  double modeled_speedup = 1.0;
};

/// Approximate multiply-accumulate count of one profiled linear layer.
double LayerFlops(const LayerProfile& layer);

/// \brief Greedy mixed-precision planner: starting from all-FP32, walks
/// layers in decreasing FLOPs order and demotes each to the fastest format
/// whose resulting total quantization bound still fits `quant_budget`.
/// Heavier layers are demoted first because they buy the most speed per
/// unit of error budget.
MixedPrecisionPlan PlanMixedPrecision(const ErrorFlowAnalysis& analysis,
                                      double quant_budget);

}  // namespace core
}  // namespace errorflow

#endif  // ERRORFLOW_CORE_MIXED_PRECISION_H_
