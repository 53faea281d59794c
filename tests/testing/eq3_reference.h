#ifndef ERRORFLOW_TESTS_TESTING_EQ3_REFERENCE_H_
#define ERRORFLOW_TESTS_TESTING_EQ3_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error_bound.h"
#include "util/macros.h"

namespace errorflow {
namespace testing {

/// Verbatim Inequality (3) of the paper for a model consisting of a single
/// MLP chain or a single residual block: the exact printed formula, with
/// plain sigma_j in the downstream products. The reference the general
/// flow recursion (core::ErrorFlowAnalysis::Bound) is compared against.
/// Returns the L2 bound for an L2 input error.
inline double Eq3BoundL2(const core::ErrorFlowAnalysis& analysis,
                         double input_l2_err, quant::NumericFormat format) {
  constexpr double kInvSqrt3 = 0.5773502691896258;
  constexpr double kInv2Sqrt3 = 0.2886751345948129;
  // The profile fallbacks of the flow for hand-built profiles.
  const auto noise_sqrt = [](const core::LayerProfile& layer) {
    return layer.noise_sqrt > 0.0
               ? layer.noise_sqrt
               : std::sqrt(static_cast<double>(layer.n_out));
  };
  const auto sigma_pert_sqrt = [](const core::LayerProfile& layer) {
    return layer.sigma_pert_sqrt > 0.0
               ? layer.sigma_pert_sqrt
               : std::sqrt(static_cast<double>(
                     std::min(layer.n_in, layer.n_out)));
  };

  const core::ModelProfile& profile = analysis.profile();
  EF_CHECK(profile.blocks.size() == 1 &&
           "Eq3BoundL2 applies to a single block/MLP");
  const core::BlockProfile& block = profile.blocks[0];
  const size_t num_layers = block.body.size();

  double sigma_s = 0.0;
  if (block.is_residual) {
    sigma_s = block.has_projection ? block.shortcut.sigma : 1.0;
  }

  // First term: (sigma_s + prod sigma_l) * ||Delta x||.
  double prod_sigma = 1.0;
  for (const core::LayerProfile& l : block.body) {
    prod_sigma *= l.sigma;
  }
  double bound = (sigma_s + prod_sigma) * input_l2_err;

  // Second term: layer-by-layer quantization noise per Inequality (3).
  // The body comes first in traversal order, so steps[l] is body[l]'s.
  const std::vector<double>& steps = analysis.Steps(format);
  const double n0 = static_cast<double>(profile.n0);
  for (size_t l = 0; l < num_layers; ++l) {
    double prefix = 1.0;  // prod_{i<l} (sigma_i + q_i sqrt(min)/sqrt 3)
    for (size_t i = 0; i < l; ++i) {
      const core::LayerProfile& layer = block.body[i];
      prefix *= layer.sigma + steps[i] * sigma_pert_sqrt(layer) * kInvSqrt3;
    }
    double suffix = 1.0;  // prod_{j>l} sigma_j (plain, as printed).
    for (size_t j = l + 1; j < num_layers; ++j) {
      suffix *= block.body[j].sigma;
    }
    bound += prefix * suffix * steps[l] * std::sqrt(n0) *
             noise_sqrt(block.body[l]) * kInv2Sqrt3;
  }
  return bound;
}

}  // namespace testing
}  // namespace errorflow

#endif  // ERRORFLOW_TESTS_TESTING_EQ3_REFERENCE_H_
