#ifndef ERRORFLOW_CORE_ALLOCATOR_H_
#define ERRORFLOW_CORE_ALLOCATOR_H_

#include <vector>

#include "core/error_bound.h"

namespace errorflow {
namespace core {

/// \brief The allocator's decision.
struct AllocationPlan {
  /// Chosen weight format (kFP32 when no reduced format fits the budget).
  NumericFormat format = NumericFormat::kFP32;
  /// Predicted quantization-only QoI bound of the chosen format.
  double quant_bound = 0.0;
  /// Input-error tolerance handed to the compressor (same norm as the
  /// request; all tolerance unused by quantization goes here).
  double input_tolerance = 0.0;
  /// Predicted total QoI bound at (format, input_tolerance).
  double predicted_total_bound = 0.0;
  /// Echo of the request.
  double qoi_tolerance = 0.0;
};

/// \brief The planner's one selection rule: among `candidates` whose
/// quant_term fits `budget`, the one the modeled GPU runs fastest (modeled
/// time scales as 1 / quant::ModeledSpeedup); on a tie the earlier
/// candidate wins. Returns nullptr when no candidate fits.
const PricedVariant* PickFastest(const std::vector<PricedVariant>& candidates,
                                 double budget);

/// \brief Picks the fastest quantization format whose predicted QoI error
/// bound fits within `quant_fraction * qoi_tolerance` (the "configurable
/// factor" of Sec. IV-D; the paper sweeps 10%-90%), then allocates every
/// remaining bit of tolerance to input compression (Sec. IV-D: "once
/// quantization is decided, all unutilized tolerance is allocated for data
/// reduction"). Quantization tolerance is discrete (few formats), so the
/// chosen format typically consumes less than its budget; the slack is not
/// wasted. `quant_fraction = 0` keeps FP32 and gives compression the whole
/// tolerance. `input_tolerance` is in `norm`.
AllocationPlan AllocateTolerance(const ErrorFlowAnalysis& analysis,
                                 double qoi_tolerance, Norm norm,
                                 double quant_fraction);

}  // namespace core
}  // namespace errorflow

#endif  // ERRORFLOW_CORE_ALLOCATOR_H_
