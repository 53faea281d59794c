#include "core/mixed_precision.h"

#include <algorithm>
#include <numeric>

#include "core/allocator.h"
#include "quant/hardware_model.h"
#include "quant/step_size.h"

namespace errorflow {
namespace core {

double LayerFlops(const LayerProfile& layer) {
  if (layer.weight.ndim() != 2 || layer.weight.size() == 0) return 0.0;
  // Dense: one MAC per weight. Conv: each kernel weight fires once per
  // output pixel = n_out / out_channels times.
  const double reuse = static_cast<double>(layer.n_out) /
                       static_cast<double>(layer.weight.dim(0));
  return static_cast<double>(layer.weight.size()) * std::max(1.0, reuse);
}

MixedPrecisionPlan PlanMixedPrecision(const ErrorFlowAnalysis& analysis,
                                      double quant_budget) {
  const std::vector<const LayerProfile*> layers = analysis.LinearLayers();
  const size_t n = layers.size();

  MixedPrecisionPlan plan;
  plan.formats.assign(n, NumericFormat::kFP32);

  // An FP32 layer is priced at its Table-I FP32 step (2^-23 RMS), a
  // conservative allowance; every other format reads the cached steps.
  std::vector<double> fp32_steps(n);
  for (size_t i = 0; i < n; ++i) {
    fp32_steps[i] =
        quant::AverageStepSize(layers[i]->weight, NumericFormat::kFP32);
  }
  std::vector<double> steps = fp32_steps;
  const auto quant_term = [&analysis, &steps] {
    return analysis.QuantTerm(steps);
  };

  // Layers by FLOPs, heaviest first.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&layers](size_t a, size_t b) {
    return LayerFlops(*layers[a]) > LayerFlops(*layers[b]);
  });

  // Demote each layer to the fastest format whose total bound still fits.
  for (size_t idx : order) {
    std::vector<PricedVariant> candidates;
    for (NumericFormat format : quant::ReducedFormats()) {
      steps[idx] = analysis.Steps(format)[idx];
      candidates.push_back(
          {format, quant::WeightQuantizer::kMaxAffine, quant_term()});
    }
    const PricedVariant* best = PickFastest(candidates, quant_budget);
    plan.formats[idx] = best != nullptr ? best->format : NumericFormat::kFP32;
    steps[idx] = best != nullptr ? analysis.Steps(best->format)[idx]
                                 : fp32_steps[idx];
  }

  plan.quant_bound = quant_term();

  // FLOPs-weighted speedup of the assignment.
  double fp32_time = 0.0, mixed_time = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double flops = LayerFlops(*layers[i]);
    fp32_time += flops;
    mixed_time += flops / quant::ModeledSpeedup(plan.formats[i]);
  }
  plan.modeled_speedup = mixed_time > 0.0 ? fp32_time / mixed_time : 1.0;
  return plan;
}

}  // namespace core
}  // namespace errorflow
