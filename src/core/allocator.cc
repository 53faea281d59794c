#include "core/allocator.h"

#include "quant/hardware_model.h"

namespace errorflow {
namespace core {

const PricedVariant* PickFastest(const std::vector<PricedVariant>& candidates,
                                 double budget) {
  const PricedVariant* best = nullptr;
  for (const PricedVariant& candidate : candidates) {
    if (!(candidate.quant_term <= budget)) continue;
    if (best == nullptr || quant::ModeledSpeedup(candidate.format) >
                               quant::ModeledSpeedup(best->format)) {
      best = &candidate;
    }
  }
  return best;
}

AllocationPlan AllocateTolerance(const ErrorFlowAnalysis& analysis,
                                 double qoi_tolerance, Norm norm,
                                 double quant_fraction) {
  AllocationPlan plan;
  plan.qoi_tolerance = qoi_tolerance;
  const std::vector<PricedVariant> candidates =
      analysis.Price(quant::ReducedFormats());
  if (const PricedVariant* best =
          PickFastest(candidates, qoi_tolerance * quant_fraction)) {
    plan.format = best->format;
    plan.quant_bound = best->quant_term;
  }
  plan.input_tolerance =
      analysis.MaxInputError(qoi_tolerance, norm, plan.format);
  plan.predicted_total_bound =
      analysis.Bound(plan.input_tolerance, norm, plan.format);
  return plan;
}

}  // namespace core
}  // namespace errorflow
